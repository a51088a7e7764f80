(** Random constraint-satisfying database instances, NULLs included.

    Rows are generated per table in catalog order (parents first — the
    schema generator numbers tables so that foreign keys point backwards)
    with rejection sampling against [CHECK] constraints and candidate-key
    uniqueness; foreign-key columns copy the key of a random parent row, or
    fall back to [NULL] (or drop the row) when the parent is empty. The
    result always satisfies [Engine.Database.validate] — property-tested in
    [test/test_difftest.ml]. *)

(** Random [FLOAT] column values and query constants are drawn from
    this pool: small integral values (which equal [INT] values under the
    null-comparison operator), two values that differ only in the 7th
    significant digit, and two of 7 or more integral digits — so seeded
    campaigns exercise exact key equality. *)
val random_float : Random.State.t -> float

(** Rows for every table of the catalog, as [(table, rows)] in catalog
    order. [rows] bounds the row count per table (default 6). *)
val tables : rng:Random.State.t -> ?rows:int -> Catalog.t -> (string * Engine.Relation.row list) list

(** Load generated rows into a fresh database. *)
val database : Catalog.t -> (string * Engine.Relation.row list) list -> Engine.Database.t

(** One [Value.Int] binding per host variable of the query. *)
val hosts : rng:Random.State.t -> Sql.Ast.query -> (string * Sqlval.Value.t) list
