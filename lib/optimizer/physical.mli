(** The one place a certified execution configuration is composed.

    The DISTINCT and join strategies shape the stream reaching the sort,
    so an order certificate does not transfer between plans. {!choose}
    runs {!Distinct_plan}, {!Join_plan}, then {!Order_plan} under the
    strategies that will run. An ablation forces [~distinct] or [~join]
    (that authority is skipped); a forced materializing sort needs no
    certificate, so callers set it on [config]. *)

type t = {
  config : Engine.Exec.config;  (** the strategies to run, else defaults *)
  distinct : Distinct_plan.choice option;  (** [None] when forced *)
  join : Join_plan.choice option;
      (** [None] when forced; the join that runs, after [Order_plan]'s
          merge upgrade ({!Join_plan.merged}) *)
  order : Order_plan.choice;
}

(** [~database] enables the provenance probes and row counts ([~stats]
    stands in for the latter). With [~trace], each consulted authority's
    nodes are the children of one node: [physical.distinct],
    [physical.join], [physical.order], in that order. Never raises on
    analysis failures. *)
val choose :
  ?cache:Analysis_cache.t ->
  ?trace:Trace.t ->
  ?database:Engine.Database.t ->
  ?stats:Cost.table_stats ->
  ?distinct:Engine.Exec.distinct_impl ->
  ?join:Engine.Exec.join_impl ->
  Catalog.t ->
  Sql.Ast.query ->
  t
