type t = {
  config : Engine.Exec.config;
  distinct : Distinct_plan.choice option;
  join : Join_plan.choice option;
  order : Order_plan.choice;
}

let choose ?cache ?(trace = Trace.disabled) ?database ?stats ?distinct ?join
    cat q =
  (* one grouping node per consulted authority, its nodes as children *)
  let group rule sub =
    Trace.emitf trace (fun () ->
        Trace.node ~rule ~children:(Trace.nodes sub) "strategy authority")
  in
  let distinct_choice, distinct_impl =
    match distinct with
    | Some impl -> (None, impl)
    | None ->
      let sub = Trace.child trace in
      let c = Distinct_plan.choose ?cache ~trace:sub ?database cat q in
      group "physical.distinct" sub;
      (Some c, c.Distinct_plan.impl)
  in
  let join_sub = Trace.child trace in
  let join_choice, join_impl =
    match join with
    | Some impl -> (None, impl)
    | None ->
      let c = Join_plan.choose ?cache ~trace:join_sub ?database ?stats cat q in
      (Some c, c.Join_plan.impl)
  in
  (* the order certificate is issued under the strategies that run *)
  let config =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.distinct_impl; join_impl }
  in
  let order_sub = Trace.child trace in
  let order = Order_plan.choose ~trace:order_sub ?database ~config ?stats cat q in
  (* the join narrated is the one that runs, merge upgrades included *)
  let join_choice =
    Option.map
      (fun c ->
        let c = Join_plan.merged ~trace:join_sub c order.Order_plan.join_impl in
        group "physical.join" join_sub;
        c)
      join_choice
  in
  group "physical.order" order_sub;
  {
    config =
      { config with
        Engine.Exec.join_impl = order.Order_plan.join_impl;
        sort_impl = order.Order_plan.impl };
    distinct = distinct_choice;
    join = join_choice;
    order;
  }
