(** Order-insensitive result checksums.

    A result is summarized by its row count and the wrapping sum of a
    per-row hash, so two bags of rows agree exactly when (up to hash
    collisions) they hold the same rows with the same multiplicities, in
    any order. The row hash mixes every column with its position, so
    changing, swapping or dropping one value in one row changes the sum.
    The hash is the benchmark's own — independent of the engine's
    [Relation.hash_row] — so the reference side never runs engine code. *)

type t = { rows : int; sum : int }

val empty : t

val hash_value : Sqlval.Value.t -> int
val hash_row : Sqlval.Value.t array -> int

(** [add t row] — [t] with one more row. *)
val add : t -> Sqlval.Value.t array -> t

val of_rows : Sqlval.Value.t array list -> t

(** Mutable accumulator for drain loops (no allocation per row). *)
type acc

val acc : unit -> acc
val feed : acc -> Sqlval.Value.t array -> unit
val result : acc -> t
val equal : t -> t -> bool
val to_string : t -> string
