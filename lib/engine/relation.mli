(** In-memory relations: a schema plus a bag (multiset) of rows.

    Rows are value arrays positionally aligned with the schema. All
    duplicate-related operations use the null-comparison total order
    ([Value.compare_total]), matching [DISTINCT] / set-operation
    semantics where two nulls are equivalent. *)

type row = Sqlval.Value.t array

type t = {
  schema : Schema.Relschema.t;
  rows : row list;
}

val make : Schema.Relschema.t -> row list -> t
val cardinality : t -> int

(** Lexicographic total order on rows (null-comparison per column). *)
val compare_rows : row -> row -> int

(** [compare_rows a b = 0] — the single row-equality notion every
    duplicate-elimination strategy shares (two nulls are equal, and
    [Int 1] equals [Float 1.0], as in [Value.compare_total]). *)
val equal_rows : row -> row -> bool

(** Hash consistent with {!equal_rows} (numerics hash through their float
    form so [Int 1] and [Float 1.0] collide on purpose). *)
val hash_row : row -> int

(** Hash table keyed by whole rows under {!equal_rows}/{!hash_row} — the
    shared state container of hash-based duplicate elimination. *)
module Row_tbl : Hashtbl.S with type key = row

(** Canonical ['\x00']-separated serialization of a value list — the one
    key format used by hash joins, EXISTS indexes, and key-constraint
    validation. *)
val key_of_values : Sqlval.Value.t list -> string

val key_of_row : row -> string

(** Multiset equality: same rows with the same multiplicities. *)
val equal_bags : t -> t -> bool

(** Rows sorted; counts the comparisons through [tick] (one call per
    row-to-row comparison). *)
val sort_rows : ?tick:(unit -> unit) -> row list -> row list

(** Distinct count of rows (for duplicate statistics). *)
val distinct_count : t -> int

val pp : Format.formatter -> t -> unit

(** Render as an aligned text table (column headers + rows). *)
val to_text : t -> string
