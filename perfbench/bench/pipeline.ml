(* SQL text -> rows: the one function that composes the system's layers.
   A later change to how the layers fit together (a new physical-plan
   API, say) edits [execute] and nothing else in the benchmark. The steps
   are those of [uniqsql run --distinct-impl auto --join-impl auto
   --sort-impl auto], with [Optimizer.Planner.choose] in front to pick
   among the paper's rewrites using the instance's row counts. *)

(* A span hook: [wrap name f] runs [f]; the traced run records a span
   named [name] around it, the untraced run just calls it. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { wrap = (fun _ f -> f ()) }

type outcome = {
  strategy : string;  (** the Planner's chosen rewrite strategy *)
  est_card : float;  (** the Planner's cardinality estimate for it *)
  stats : Engine.Stats.t;  (** the executor counters of this query *)
}

let execute { wrap } db ~hosts ~consume sql =
  let cat = Engine.Database.catalog db in
  let q = wrap "sql.parse" (fun () -> Sql.Parser.parse_query sql) in
  let q = wrap "uniqueness.views" (fun () -> Uniqueness.Views.expand_query cat q) in
  let chosen =
    wrap "optimizer.planner" (fun () ->
        Optimizer.Planner.choose cat (Engine.Database.row_count db) q)
  in
  let q = chosen.Optimizer.Planner.query in
  let distinct_impl =
    wrap "optimizer.distinct_plan" (fun () ->
        (Optimizer.Distinct_plan.choose ~database:db cat q)
          .Optimizer.Distinct_plan.impl)
  in
  let join_impl =
    wrap "optimizer.join_plan" (fun () ->
        (Optimizer.Join_plan.choose ~database:db cat q).Optimizer.Join_plan.impl)
  in
  let order =
    wrap "optimizer.order_plan" (fun () ->
        let config =
          { (Engine.Exec.default_config ()) with
            Engine.Exec.distinct_impl; join_impl }
        in
        Optimizer.Order_plan.choose ~database:db ~config cat q)
  in
  let config =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.distinct_impl;
      join_impl = order.Optimizer.Order_plan.join_impl;
      sort_impl = order.Optimizer.Order_plan.impl }
  in
  let plan = wrap "relalg.translate" (fun () -> Relalg.Plan.of_query cat q) in
  let op =
    wrap "engine.compile" (fun () -> Engine.Exec.compile ~config db ~hosts plan)
  in
  wrap "engine.drain" (fun () ->
      let rec drain () =
        match Engine.Operator.next op with
        | Some row ->
          consume row;
          drain ()
        | None -> Engine.Operator.close op
      in
      drain ());
  { strategy = chosen.Optimizer.Planner.name;
    est_card = chosen.Optimizer.Planner.estimate.Optimizer.Cost.card;
    stats = config.Engine.Exec.stats }
