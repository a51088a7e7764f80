(* The per-layer metric catalogue. Layers are named after lib/ modules;
   every traced run reports every metric, 0 where its workload does not
   reach the layer, so all runs print the same names. *)

module Span = Perfbench_core.Span

let scale_template_names =
  [ "distinct_key"; "distinct_grp"; "order_key"; "order_grp"; "filter_proj";
    "star_join"; "pair_merge" ]

(* Spans that time one call into a layer, named like the metric that
   reports their mean self time per query or request (suffix [_us]). *)
let timed_spans =
  [ "sql.parse"; "uniqueness.views"; "optimizer.planner";
    "optimizer.distinct_plan"; "optimizer.join_plan"; "optimizer.order_plan";
    "relalg.translate"; "engine.compile"; "uniqueness.alg1"; "uniqueness.fd";
    "uniqueness.rewrite"; "sql.pretty" ]

(* [Engine.Stats] fields reported as a mean per query ([dedup_state_peak]
   as the maximum). *)
let engine_counters =
  [ "rows_scanned"; "predicate_evals"; "hash_probes"; "dedup_rows_in";
    "dedup_state_peak"; "join_build_rows"; "join_probe_rows";
    "probe_early_exits"; "comparisons"; "sorted_rows"; "distinct_elisions";
    "sort_elisions"; "merge_joins"; "subquery_evals" ]

let catalogue =
  [ ("workload.generate_s", "s") ]
  @ List.map (fun s -> (s ^ "_us", "us")) timed_spans
  @ [ ("optimizer.rewrites_fired", "count"); ("optimizer.card_qerror", "ratio") ]
  @ List.map (fun t -> ("engine.drain_ms." ^ t, "ms")) scale_template_names
  @ [ ("engine.drain_ns_per_row", "ns"); ("engine.drain_words_per_row", "words");
      ("engine.drain_minor_gcs", "count"); ("engine.drain_major_gcs", "count") ]
  @ List.map (fun c -> ("engine." ^ c, "count")) engine_counters
  @ [ ("cache.verdict_hit_rate", "ratio"); ("cache.verdict_evictions", "count");
      ("cache.closure_memo_hit_rate", "ratio");
      ("cache.closure_iterations", "count");
      ("serve.server_p50_us", "us"); ("serve.server_p99_us", "us");
      ("serve.inflight_peak", "count"); ("serve.rejected", "count");
      ("serve.latency_p50_ms", "ms"); ("serve.latency_p90_ms", "ms");
      ("serve.latency_p99_ms", "ms"); ("serve.throughput_qps", "q/s");
      ("bench.glue_self_us", "us");
      ("trace.overhead_frac", "ratio") ]

(* Fill the catalogue from [values], 0 for every name not given. *)
let metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Layers.metrics: not in the catalogue: " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      Perfbench_core.Report.metric name unit
        (Option.value ~default:0. (List.assoc_opt name values)))
    catalogue

(* Mean self time per root span (one query or request), in µs, of every
   timed layer, plus the roots' own self time as [bench.glue_self_us];
   and each request's self times summed, in ns. *)
let self_times ~root spans =
  let roots = List.filter (fun s -> s.Span.name = root) spans in
  let n = float_of_int (max 1 (List.length roots)) in
  let by_request = Hashtbl.create 1024 in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let self = Int64.to_float self in
      Hashtbl.replace by_request s.Span.request
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_request s.Span.request));
      Hashtbl.replace totals s.Span.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt totals s.Span.name)))
    (Span.self_times spans);
  let mean name = Option.value ~default:0. (Hashtbl.find_opt totals name) /. n /. 1e3 in
  ( ("bench.glue_self_us", mean root)
    :: List.map (fun s -> (s ^ "_us", mean s)) timed_spans,
    by_request )

(* The check that each traced operation's layer self times add up to its
   latency. [latencies] pairs each request id with the latency (ns) the
   caller measured around the root span, on the same clock: the root
   span's own recording is the only time outside every span. Returns the
   share of the summed latency no span covers, and a complaint when an
   operation's self times exceed its latency or that share is above
   [max_unattributed]. *)
let max_unattributed = 0.02

let unattributed ~sums latencies =
  let over = ref 0 and total = ref 0. and gap = ref 0. in
  List.iter
    (fun (id, lat) ->
      let sum = Option.value ~default:0. (Hashtbl.find_opt sums id) in
      if sum > lat then incr over;
      total := !total +. lat;
      gap := !gap +. (lat -. sum))
    latencies;
  let share = !gap /. Float.max 1. !total in
  let complaint =
    if !over > 0 then
      Some (Printf.sprintf "%d traced operations' self times exceed their latency" !over)
    else if share > max_unattributed then
      Some (Printf.sprintf "%.2f%% of the traced latency lies outside every span" (share *. 100.))
    else None
  in
  (share, complaint)
