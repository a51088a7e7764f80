(* scale_1m and paper_mix: SQL text -> rows through [Pipeline.execute],
   one client, closed loop, templates in a seeded shuffle per round. *)

module M = Perfbench_core.Measure
module Summary = Perfbench_core.Summary
module Span = Perfbench_core.Span
module Checksum = Perfbench_core.Checksum
module Report = Perfbench_core.Report
module Value = Sqlval.Value

type spec = {
  name : string;
  setups_before : int;
      (** set-ups before the measured phase, the first of them untimed *)
  setups_after : int;
      (** set-ups after it, once its instance is dropped: [setup_s] then
          samples both ends of the run rather than its first seconds *)
  setup_each_round : bool;
      (** also time one more set-up after each measured round, so that
          [setup_s] samples the whole run *)
  setup : seed:int -> unit -> Queries.template list;
      (** [setup ~seed] generates and loads the data (the timed set-up);
          applying the result computes the templates' reference answers,
          which is neither set-up nor measured *)
  min_samples : int;
      (** latency samples the reported percentiles need: the measured
          phase runs whole rounds until it has both [--seconds] and this *)
}

(* Hard cap on the measured phase, so a slow commit still ends inside
   a per-run time limit; a run cut short by it reports no
   percentile it cannot back and fails. *)
let max_measure_s = 120.

type sample = {
  latency_ns : int64;
  rows : int;
  words : float;
  ok : bool;
  outcome : Pipeline.outcome option;
}

(* Drain-side checks of one query: count and checksum, and for ORDER BY
   templates that rows arrive nondecreasing on the sort column. *)
type check = {
  acc : Checksum.acc;
  col : int;
  mutable prev : Value.t;
  mutable sorted : bool;
}

let consume c row =
  Checksum.feed c.acc row;
  if c.col >= 0 then begin
    let v = row.(c.col) in
    if Value.compare_total c.prev v > 0 then c.sorted <- false;
    c.prev <- v
  end

let run_one ?(wrap = Pipeline.untraced) (t : Queries.template) =
  let c =
    { acc = Checksum.acc (); col = Option.value ~default:(-1) t.sort_col;
      prev = Value.Null; sorted = true }
  in
  let w0 = M.words_allocated () in
  let t0 = M.now_ns () in
  let outcome =
    try
      Some
        (wrap.Pipeline.wrap "query" (fun () ->
             Pipeline.execute wrap t.db ~hosts:t.hosts ~consume:(consume c) t.sql))
    with e ->
      Printf.eprintf "perfbench: %s raised %s\n%!" t.name (Printexc.to_string e);
      None
  in
  let t1 = M.now_ns () in
  let words = M.words_allocated () -. w0 in
  let got = Checksum.result c.acc in
  let ok = outcome <> None && Checksum.equal got t.expected && c.sorted in
  if outcome <> None && not ok then
    Printf.eprintf "perfbench: %s: got %s%s, expected %s\n%!" t.name
      (Checksum.to_string got)
      (if c.sorted then "" else " (out of order)")
      (Checksum.to_string t.expected);
  { latency_ns = Int64.sub t1 t0; rows = got.Checksum.rows; words; ok; outcome }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* One set-up, timed from a collected heap, so that no earlier work's
   pending collection is charged to it. *)
let timed_setup spec ~seed =
  Gc.full_major ();
  let t0 = M.now_s () in
  let r = spec.setup ~seed in
  (M.now_s () -. t0, r)

(* Set up [n] times, keeping the last instance; returns the set-up times
   and the templates of that instance. The previous instance is dropped
   before the next set-up, so memory holds one instance. The first set-up
   is not a sample: it also grows the heap from nothing, which on
   [scale_1m] adds 0.3-0.7 s of page faults that vary with the host, and
   the heap's growth shows in [peak_rss_mb]. *)
let setup_repeated spec ~seed n =
  let last = ref None in
  let times =
    List.init n (fun _ ->
        last := None;
        let dt, templates = timed_setup spec ~seed in
        last := Some templates;
        dt)
  in
  let templates = (Option.get !last) () in
  Gc.full_major ();
  (List.tl times, templates)

(* A run's percentile over windows of whole rounds, so that every window
   holds the same mix of templates (see [Summary.windowed]). *)
let percentile_or_fail name ~round samples p =
  match Summary.windowed ~unit:round samples p with
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "%s: %d samples cannot back this percentile"
         name (Array.length samples))

(* The measured phase on one fresh instance: the set-ups before it, a
   checked warm-up round, then measured rounds. Returns the samples in the
   order they were taken, the rounds' total time and the memory peak. *)
let measured_phase spec ~seed ~seconds ~setup_times ~tally =
  let before, templates = setup_repeated spec ~seed spec.setups_before in
  setup_times := List.rev before;
  let rng = Random.State.make [| seed; 0x726f756e |] in
  (* warm-up round: lazy set-up finishes and every answer is checked
     once before timing *)
  List.iter (fun t -> tally (run_one t)) templates;
  let peak_mb = ref 0. in
  let samples = ref [] and rounds = ref 0 and measured_s = ref 0. in
  let start = M.now_s () in
  let continue () =
    let elapsed = M.now_s () -. start in
    elapsed < max_measure_s
    && (elapsed < seconds || List.length !samples < spec.min_samples)
  in
  while continue () do
    (* the memory peak covers the measured rounds alone: the high-water
       mark restarts from the current resident set before each one, so
       set-up transients and the references do not count *)
    if not (M.reset_hwm ()) && !rounds = 0 then
      prerr_endline "perfbench: cannot reset VmHWM; peak_rss_mb covers the whole run";
    let r0 = M.now_s () in
    let round = List.map (fun t -> run_one t) (shuffle rng templates) in
    let dt = M.now_s () -. r0 in
    peak_mb := Float.max !peak_mb (Option.value ~default:0. (M.hwm_mb ()));
    List.iter tally round;
    samples := List.rev_append round !samples;
    incr rounds;
    measured_s := !measured_s +. dt;
    if spec.setup_each_round then
      setup_times := fst (timed_setup spec ~seed) :: !setup_times
  done;
  (List.rev !samples, !rounds, !measured_s, !peak_mb)

let run_e2e spec ~seed ~seconds =
  let attempted = ref 0 and failed = ref 0 in
  let tally s =
    incr attempted;
    if not s.ok then incr failed
  in
  let setup_times = ref [] in
  let samples, rounds, measured_s, peak_mb =
    measured_phase spec ~seed ~seconds ~setup_times ~tally
  in
  for _ = 1 to spec.setups_after do
    setup_times := fst (timed_setup spec ~seed) :: !setup_times
  done;
  let round = List.length samples / rounds in
  let samples = Array.of_list samples in
  let lat = Array.map (fun s -> M.ns_to_ms s.latency_ns) samples in
  let rows = Array.fold_left (fun a s -> a + s.rows) 0 samples in
  let words = Array.fold_left (fun a s -> a +. s.words) 0. samples in
  let metrics =
    [ Report.metric "setup_s" "s" (Summary.middle (Array.of_list !setup_times));
      Report.metric "throughput_qps" "q/s"
        (float_of_int (Array.length samples) /. measured_s);
      Report.metric "latency_p50_ms" "ms" (percentile_or_fail "p50" ~round lat 0.5);
      Report.metric "latency_p90_ms" "ms" (percentile_or_fail "p90" ~round lat 0.9);
      Report.metric "alloc_words_per_row" "words"
        (words /. float_of_int (max 1 rows));
      Report.metric "peak_rss_mb" "MB" peak_mb ]
  in
  Printf.printf
    "%s: %d setups (%s s), %d rounds, %d latency samples, %d result rows\n" spec.name
    (List.length !setup_times)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times))
    rounds (Array.length lat) rows;
  (metrics, !attempted, !failed)

(* ---- traced run ---- *)

let q_error ~est ~actual =
  let e = Float.max 1. est and a = Float.max 1. (float_of_int actual) in
  Float.max e a /. Float.min e a

let run_traced spec ~seed ~seconds ~spans_out =
  let rec_ = Span.create () in
  let templates =
    Span.record rec_ ~name:"workload.generate" ~request:(-1) (fun () ->
        spec.setup ~seed)
  in
  let templates = templates () in
  let attempted = ref 0 and failed = ref 0 in
  let tally s =
    incr attempted;
    if not s.ok then incr failed
  in
  List.iter (fun t -> tally (run_one t)) templates;
  (* the drain span also reads allocation and collection counts *)
  let drain_words = ref 0. and drain_gcs = ref (0, 0) in
  let request = ref 0 in
  let traced_wrap =
    { Pipeline.wrap =
        (fun name f ->
          if name = "engine.drain" then begin
            let w0 = M.words_allocated () and mi0, ma0 = M.collections () in
            let r = Span.record rec_ ~name ~request:!request f in
            let mi1, ma1 = M.collections () in
            drain_words := !drain_words +. (M.words_allocated () -. w0);
            let a, b = !drain_gcs in
            drain_gcs := (a + mi1 - mi0, b + ma1 - ma0);
            r
          end
          else Span.record rec_ ~name ~request:!request f) }
  in
  let rng = Random.State.make [| seed; 0x74726163 |] in
  let traced = ref [] and untraced_ms = ref 0. and traced_ms = ref 0. in
  let start = M.now_s () in
  let rounds = ref 0 in
  (* untraced and traced rounds alternate, which gives the tracing
     overhead on the same queries *)
  while !rounds < 2 || M.now_s () -. start < seconds do
    incr rounds;
    let order = shuffle rng templates in
    List.iter
      (fun t ->
        let s = run_one t in
        tally s;
        untraced_ms := !untraced_ms +. M.ns_to_ms s.latency_ns)
      order;
    List.iter
      (fun (t : Queries.template) ->
        incr request;
        let s = run_one ~wrap:traced_wrap t in
        tally s;
        traced_ms := !traced_ms +. M.ns_to_ms s.latency_ns;
        traced := (t.name, !request, s) :: !traced)
      order
  done;
  let spans = Span.spans rec_ in
  let generate_s =
    List.find (fun s -> s.Span.name = "workload.generate") spans
    |> Span.duration_ns |> Int64.to_float |> ( *. ) 1e-9
  in
  let traced = List.rev !traced in
  let self, sums = Layers.self_times ~root:"query" spans in
  let unattributed, complaint =
    Layers.unattributed ~sums
      (List.map (fun (_, id, s) -> (id, Int64.to_float s.latency_ns)) traced)
  in
  Option.iter
    (fun msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      incr failed)
    complaint;
  let nq = float_of_int (max 1 (List.length traced)) in
  let drains = List.filter (fun s -> s.Span.name = "engine.drain") spans in
  let drain_ns =
    List.fold_left (fun a s -> a +. Int64.to_float (Span.duration_ns s)) 0. drains
  in
  let rows = List.fold_left (fun a (_, _, s) -> a + s.rows) 0 traced in
  let per_row x = x /. float_of_int (max 1 rows) in
  let drain_ms_of name =
    let ids =
      List.filter_map (fun (n, id, _) -> if n = name then Some id else None) traced
    in
    let ms =
      List.filter_map
        (fun s ->
          if List.mem s.Span.request ids then Some (M.ns_to_ms (Span.duration_ns s))
          else None)
        drains
    in
    if ms = [] then 0. else Summary.middle (Array.of_list ms)
  in
  let outcomes = List.filter_map (fun (_, _, s) -> s.outcome) traced in
  let counter name =
    let field st = List.assoc name (Engine.Stats.fields st.Pipeline.stats) in
    if name = "dedup_state_peak" then
      List.fold_left (fun a o -> max a (float_of_int (field o))) 0. outcomes
    else List.fold_left (fun a o -> a +. float_of_int (field o)) 0. outcomes /. nq
  in
  let qerrors =
    List.filter_map
      (fun (_, _, s) ->
        Option.map (fun o -> q_error ~est:o.Pipeline.est_card ~actual:s.rows) s.outcome)
      traced
  in
  let minor, major = !drain_gcs in
  let values =
    [ ("workload.generate_s", generate_s);
      ("optimizer.rewrites_fired",
        float_of_int
          (List.length (List.filter (fun o -> o.Pipeline.strategy <> "as-written") outcomes))
        /. nq);
      ("optimizer.card_qerror",
        if qerrors = [] then 0. else Summary.middle (Array.of_list qerrors));
      ("engine.drain_ns_per_row", per_row drain_ns);
      ("engine.drain_words_per_row", per_row !drain_words);
      ("engine.drain_minor_gcs", float_of_int minor /. nq);
      ("engine.drain_major_gcs", float_of_int major /. nq);
      ("trace.overhead_frac", (!traced_ms -. !untraced_ms) /. !untraced_ms) ]
    @ self
    @ List.map (fun c -> ("engine." ^ c, counter c)) Layers.engine_counters
    @ List.map (fun t -> ("engine.drain_ms." ^ t, drain_ms_of t)) Layers.scale_template_names
  in
  Option.iter (fun path -> Spans_file.write path spans) spans_out;
  Printf.printf
    "%s (traced): %d rounds, %d traced queries, %.3f%% of their latency outside every span\n"
    spec.name !rounds (List.length traced) (unattributed *. 100.);
  (Layers.metrics values, !attempted, !failed)

let scale_1m =
  { name = "scale_1m";
    setups_before = 4;
    setups_after = 3;
    setup_each_round = false;
    setup =
      (fun ~seed ->
        let d = Queries.scale_setup ~seed in
        fun () -> Queries.scale_templates d);
    min_samples = 100 }

let paper_mix =
  { name = "paper_mix";
    setups_before = 1;
    setups_after = 0;
    setup_each_round = true;
    setup =
      (fun ~seed ->
        let db = Queries.paper_setup ~seed in
        fun () -> Queries.paper_templates db);
    min_samples = 100 }
