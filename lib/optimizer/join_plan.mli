(** Join-order and unique-build strategy choice.

    Like [Distinct_plan], this module is a certificate authority sitting
    above the engine: [Engine.Exec] runs a [Planned_join] order as given
    and fails the run on a unique build's first key collision, so every
    [js_unique_build = true] must be backed by an independently derivable
    proof. The proof is Algorithm 1
    run on a synthetic [SELECT DISTINCT <build join columns> FROM <leaf>
    WHERE <pushed single-leaf conjuncts>] spec: an Algorithm 1 YES says
    the build side's join columns cover a derived candidate key of the
    filtered leaf, so each hash bucket holds exactly one row — the engine
    may store one flat row per key and early-exit every probe. The spec
    itself is carried in {!step.cert_spec} so auditors (the difftest
    [join] oracle) can re-derive the certificate without trusting this
    module.

    Ordering is a greedy enumeration over the flattened FROM-list leaves:
    every leaf is tried as the start of the probe pipeline, each partial
    order is extended with the cheapest next step under {!Cost.join_step}
    (ties broken toward the smallest leaf index, keeping the result
    deterministic), and the cheapest completed order wins. Unique-build
    certificates feed the cost model — equality on a candidate key caps a
    step's output cardinality at the outer side instead of applying the
    blanket 0.1 selectivity — so key-covering joins are ordered first.

    With [~trace], the decision lands as a [planner.join] node (citing
    Theorem 1 when any build is unique) whose children describe each step. *)

(** One join step of the chosen order. *)
type step = {
  leaf : int;  (** index into the FROM-order flattened leaves *)
  leaf_name : string;  (** correlation name of the leaf *)
  equis : int;  (** cross-leaf equality edges consumed by this step *)
  unique_build : bool;
  cert_spec : Sql.Ast.query_spec option;
      (** the synthetic DISTINCT spec whose Algorithm 1 YES certifies
          [unique_build]; [Some _] iff [unique_build] *)
  est : Cost.estimate;  (** running estimate {e after} this step *)
}

type choice = {
  impl : Engine.Exec.join_impl;
      (** [Planned_join] when a plan was produced, [Hash_join] otherwise *)
  name : string;
      (** ["cost-ordered"], ["from-order"] (analysis failed), or ["none"]
          (nothing to plan) *)
  reason : string;
  first : int;  (** leaf the probe pipeline starts from *)
  steps : step list;
  est_cost : float;
  from_order_cost : float;
      (** the same cost model applied to FROM-clause order — the
          yardstick the [JOIN_SCALE] bench measures against *)
  unique_builds : int;
}

(** Is there a join to plan? True only for a [Spec] with at least two
    FROM items. *)
val applicable : Sql.Ast.query -> bool

(** Pick a join order. Table cardinalities come from [~database] row
    counts when an instance is at hand, else from [~stats], else default
    to 1000 rows per table. Never raises: unresolvable references degrade
    to FROM-order hash joins with no unique builds. *)
val choose :
  ?cache:Analysis_cache.t ->
  ?trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?stats:Cost.table_stats ->
  Catalog.t ->
  Sql.Ast.query ->
  choice

(** [merged c impl] — [c] as it runs under [impl], [Order_plan]'s upgrade
    of [c.impl]: the steps flagged [js_merge] run as streaming merge
    joins, which take precedence over their unique builds. The result
    carries [impl], the unique builds that still run, and a reason naming
    the merged steps; with [~trace] a [planner.join.merge] node says the
    same. [c] itself when no step merges. *)
val merged : ?trace:Trace.t -> choice -> Engine.Exec.join_impl -> choice
