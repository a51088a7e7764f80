type t = {
  config : Engine.Exec.config;
  distinct : Distinct_plan.choice option;
  join : Join_plan.choice option;
  order : Order_plan.choice;
}

let choose ?cache ?(trace = Trace.disabled) ?database ?stats ?distinct ?join
    cat q =
  (* one grouping node per consulted authority, its nodes as children *)
  let grouped rule decide =
    let sub = Trace.child trace in
    let c = decide sub in
    Trace.emitf trace (fun () ->
        Trace.node ~rule ~children:(Trace.nodes sub) "strategy authority");
    c
  in
  let distinct_choice, distinct_impl =
    match distinct with
    | Some impl -> (None, impl)
    | None ->
      let c =
        grouped "physical.distinct" (fun trace ->
            Distinct_plan.choose ?cache ~trace ?database cat q)
      in
      (Some c, c.Distinct_plan.impl)
  in
  let join_choice, join_impl =
    match join with
    | Some impl -> (None, impl)
    | None ->
      let c =
        grouped "physical.join" (fun trace ->
            Join_plan.choose ?cache ~trace ?database ?stats cat q)
      in
      (Some c, c.Join_plan.impl)
  in
  (* the order certificate is issued under the strategies that run *)
  let config =
    { (Engine.Exec.default_config ()) with
      Engine.Exec.distinct_impl; join_impl }
  in
  let order =
    grouped "physical.order" (fun trace ->
        Order_plan.choose ~trace ?database ~config ?stats cat q)
  in
  {
    config =
      { config with
        Engine.Exec.join_impl = order.Order_plan.join_impl;
        sort_impl = order.Order_plan.impl };
    distinct = distinct_choice;
    join = join_choice;
    order;
  }
