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

(** [compare_rows a b = 0] — the engine's one row equality, the paper's
    null-comparison [≐] per column: two nulls are equal, and [Int 1]
    equals [Float 1.0], as in [Value.compare_total]. DISTINCT, key joins,
    set operations and key constraints all decide equality here. *)
val equal_rows : row -> row -> bool

(** Hash consistent with {!equal_rows} (numerics hash through their float
    form so [Int 1] and [Float 1.0] collide on purpose). *)
val hash_row : row -> int

(** Hash table keyed by value arrays under {!equal_rows}/{!hash_row} —
    the engine's one key format. Duplicate elimination keys on whole
    rows; hash joins, semi-joins, the [EXISTS] index and key-constraint
    validation key on the extracted key columns. *)
module Row_tbl : Hashtbl.S with type key = row

(** Multiset equality: same rows with the same multiplicities. Sorts
    privately rather than through {!Row_tbl}, so the oracles that use it
    as their reference share no state container with the engine. *)
val equal_bags : t -> t -> bool

(** Distinct count of rows (for duplicate statistics). *)
val distinct_count : t -> int

val pp : Format.formatter -> t -> unit

(** Render as an aligned text table (column headers + rows). *)
val to_text : t -> string
