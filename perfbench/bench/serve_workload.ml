(* serve_mix: analysis requests -> framed replies through a
   [uniqsql serve --socket] subprocess (default --jobs 1, default
   1024-entry verdict cache), driven by this process as its one client
   over one connection. *)

module M = Perfbench_core.Measure
module Summary = Perfbench_core.Summary
module Span = Perfbench_core.Span
module Reply = Perfbench_core.Reply
module Report = Perfbench_core.Report
module S = Serve_stream

(* Latency comes from a closed loop with one request in flight: the
   client sends the next request as soon as the reply arrives. An open
   loop at a fixed rate (2500 and 5000 req/s were tried) put this host's
   millisecond stalls in front of every request that arrived during
   one, so its p90 swung from 0.3 to 7 ms between runs; here a stall
   delays only the request in flight. *)
let latency_window = 1

(* Throughput comes from a closed loop with a pipeline window, below the
   server's admission bound of 1024 in-flight requests. *)
let throughput_window = 32
let setups = 25

(* A reply still missing this long after its request counts as missing,
   and a failed request's latency is this limit. *)
let reply_timeout_s = 10.

(* Requests at the head of the stream the traced run replays in-process
   for its layer split. *)
let traced_replay = 40_000

(* Requests of the stream the end-to-end run sends the server, after the
   warm-up, before it reads the server's peak resident set. *)
let rss_requests = 20_000

(* ---- connection ---- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  chunk : Bytes.t;
  block : Buffer.t;  (** the reply block being assembled *)
  blocks : string Queue.t;  (** complete reply blocks, oldest first *)
}

let conn fd =
  { fd; inbuf = Buffer.create 65536; chunk = Bytes.create 65536;
    block = Buffer.create 256; blocks = Queue.create () }

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

(* Read what is available (one [read]) and split it into reply blocks,
   each ended by a line holding a single dot. False at end of stream. *)
let pump c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.inbuf c.chunk 0 n;
    let s = Buffer.contents c.inbuf in
    let rec lines start =
      match String.index_from_opt s start '\n' with
      | None -> start
      | Some i ->
        let line = String.sub s start (i - start) in
        if line = "." then begin
          Queue.add (Buffer.contents c.block) c.blocks;
          Buffer.clear c.block
        end
        else begin
          Buffer.add_string c.block line;
          Buffer.add_char c.block '\n'
        end;
        lines (i + 1)
    in
    let rest = lines 0 in
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf (String.sub s rest (String.length s - rest));
    true

let readable c timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Wait (up to [timeout] s) for the next reply block. *)
let await c ~timeout =
  let deadline = M.now_s () +. timeout in
  let rec go () =
    if not (Queue.is_empty c.blocks) then Some (Queue.take c.blocks)
    else
      let left = deadline -. M.now_s () in
      if left <= 0. then None
      else if readable c left && not (pump c) then None
      else go ()
  in
  go ()

(* ---- server process ---- *)

external pin : int -> int -> bool = "perfbench_pin" [@@noalloc]
external allowed_cpus : unit -> int = "perfbench_allowed" [@@noalloc]

(* Client and server each get one CPU of the first two this process may
   use; with fewer than two, neither is pinned. *)
let cpus =
  lazy
    (let m = allowed_cpus () in
     match List.filter (fun i -> m land (1 lsl i) <> 0) (List.init 62 Fun.id) with
     | client :: server :: _ -> Some (client, server)
     | _ -> None)

type server = { pid : int; c : conn }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    None

let reap pid =
  let deadline = M.now_s () +. 5. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when M.now_s () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

(* Start the server and connect; the time from spawn to an accepted
   connection is one set-up sample. *)
let start ~exe ~socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = M.now_s () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket |] devnull devnull
      Unix.stderr
  in
  Unix.close devnull;
  Option.iter (fun (_, cpu) -> ignore (pin pid cpu)) (Lazy.force cpus);
  let rec wait () =
    match connect socket with
    | Some fd -> fd
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "serve exited before accepting a connection");
      if M.now_s () -. t0 > 30. then begin
        reap pid;
        failwith "serve did not accept a connection within 30 s"
      end;
      Unix.sleepf 0.0002;
      wait ()
  in
  let fd = wait () in
  let dt = M.now_s () -. t0 in
  ({ pid; c = conn fd }, dt)

let stop s =
  (try
     send s.c "shutdown";
     ignore (await s.c ~timeout:5.)
   with Unix.Unix_error _ -> ());
  (try Unix.close s.c.fd with Unix.Unix_error _ -> ());
  reap s.pid

(* [setups] starts; all but the last are shut down at once. *)
let start_repeated ~exe ~socket =
  let rec go i acc =
    let s, dt = start ~exe ~socket in
    if i = setups then (s, Summary.middle (Array.of_list (dt :: acc)))
    else begin
      stop s;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

(* ---- load phases ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let judge t (r : S.request) reply =
  let o = Reply.judge ~expected:r.S.expected reply in
  t.attempted <- t.attempted + 1;
  if Reply.failed o then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: %s -> %s\n%!" r.S.sql
      (match o with
       | Reply.Wrong b -> "wrong reply: " ^ b
       | Reply.Overloaded -> "overloaded"
       | Reply.Missing -> "no reply"
       | Reply.Correct -> "")
  end;
  not (Reply.failed o)

(* Closed loop: requests from [next] (until it returns [None]) for
   [seconds] with at most [window] in flight, then the replies still in
   flight. Returns each request's latency in ms, from its send to its
   framed reply (a failed request counts as [reply_timeout_s]), in send
   order, and the time taken. *)
let closed_loop s t ~next ~window ~seconds =
  let inflight = Queue.create () in
  let t0 = M.now_s () in
  let lat = ref [] in
  let stalled = ref false in
  let rec fill () =
    if (not !stalled) && Queue.length inflight < window && M.now_s () -. t0 < seconds
    then
      match next () with
      | Some r ->
        send s.c r.S.sql;
        Queue.add (r, M.now_s ()) inflight;
        fill ()
      | None -> stalled := true
  in
  fill ();
  while not (Queue.is_empty inflight) do
    match await s.c ~timeout:reply_timeout_s with
    | None ->
      (* the connection stalled: every request in flight is missing *)
      Queue.iter
        (fun (r, _) ->
          ignore (judge t r None);
          lat := (reply_timeout_s *. 1e3) :: !lat)
        inflight;
      Queue.clear inflight;
      stalled := true
    | Some _ as reply ->
      let now = M.now_s () in
      let r, sent = Queue.take inflight in
      lat := (if judge t r reply then (now -. sent) *. 1e3 else reply_timeout_s *. 1e3) :: !lat;
      fill ()
  done;
  (Array.of_list (List.rev !lat), M.now_s () -. t0)

(* The warm-up: the base set once, over the socket, checked. *)
let warm_up s t ~seed =
  let pending = ref (S.warmup ~seed) in
  let next () =
    match !pending with
    | r :: rest ->
      pending := rest;
      Some r
    | [] -> None
  in
  ignore (closed_loop s t ~next ~window:throughput_window ~seconds:infinity)

(* ---- the server's own counters ---- *)

type server_stats = {
  rejected : int;
  inflight_peak : int;
  analyze_p50_us : float;
  analyze_p99_us : float;
}

(* Parse the [stats] reply: the counter line, then per-class latency
   blocks ("< class = analyze", "> p50_us = ..."). *)
let parse_stats text =
  let lines = String.split_on_char '\n' text in
  let rejected, inflight_peak =
    match List.find_opt (String.starts_with ~prefix:"stats ") lines with
    | Some l ->
      Scanf.sscanf l "stats jobs=%_d served=%_d rejected=%d inflight_peak=%d"
        (fun a b -> (a, b))
    | None -> failwith "stats reply without a counter line"
  in
  let field_in cls key =
    let rec find in_cls = function
      | [] -> nan
      | l :: rest ->
        let l = String.trim l in
        if String.starts_with ~prefix:"< class = " l then
          find (l = "< class = " ^ cls) rest
        else if in_cls && String.starts_with ~prefix:("> " ^ key ^ " = ") l then
          Scanf.sscanf l "> %_s = %f" Fun.id
        else find in_cls rest
    in
    find false lines
  in
  { rejected; inflight_peak;
    analyze_p50_us = field_in "analyze" "p50_us";
    analyze_p99_us = field_in "analyze" "p99_us" }

let server_stats s =
  send s.c "stats";
  match await s.c ~timeout:reply_timeout_s with
  | Some text -> parse_stats text
  | None -> failwith "no reply to stats"

(* ---- one pass of the load ---- *)

type pass = {
  latencies : float array;  (** the one-in-flight loop's, ms *)
  closed_rate : float;  (** the pipelined loop's replies per second *)
  latency_stats : server_stats;
      (** the server's own counters after the warm-up and the
          one-in-flight loop *)
  stats : server_stats;  (** ... and at the end *)
  sent : S.request list;  (** every request, in the order sent *)
}

(* The traced run's pass over the socket: the warm-up, then one request
   in flight for [seconds]/2 and a pipeline window for [seconds]/2. *)
let load_pass ~exe ~socket ~seed ~seconds t =
  Option.iter (fun (cpu, _) -> ignore (pin 0 cpu)) (Lazy.force cpus);
  let s, _ = start ~exe ~socket in
  Fun.protect
    ~finally:(fun () -> stop s)
    (fun () ->
      warm_up s t ~seed;
      let g = S.generator ~seed in
      let sent = ref [] in
      let next () =
        let r = S.next g in
        sent := r :: !sent;
        Some r
      in
      let half = seconds /. 2. in
      let latencies, _ = closed_loop s t ~next ~window:latency_window ~seconds:half in
      let latency_stats = server_stats s in
      let pipelined, closed_s =
        closed_loop s t ~next ~window:throughput_window ~seconds:half
      in
      let stats = server_stats s in
      { latencies;
        closed_rate = float_of_int (Array.length pipelined) /. closed_s;
        latency_stats; stats; sent = S.warmup ~seed @ List.rev !sent })

(* ---- in-process replay ---- *)

let catalog = lazy (Workload.Paper_schema.catalog ())

let fresh_cache () =
  Cache.Runtime.clear ();
  Cache.Counters.reset ();
  Analysis_cache.create ~capacity:1024 ~shards:1 ()

(* [Serve.Reply.process] as the server runs it with one request in
   flight: a batch of one, in a cache epoch of its own ([Reply.run_batch]
   wraps each batch in one). Inside an epoch, lookups leave the LRU order
   alone and new verdicts wait for the merge at its end. *)
let process cache cat ~label sql =
  Analysis_cache.epoch cache (fun () -> fst (Serve.Reply.process cache cat ~label sql))

let replay_untraced requests =
  let cat = Lazy.force catalog in
  let cache = fresh_cache () in
  Cache.Runtime.with_enabled true (fun () ->
      List.mapi
        (fun i (r : S.request) ->
          process cache cat ~label:(Printf.sprintf "[%d]" (i + 1)) r.S.sql)
        requests)

(* The same calls [Serve.Reply.process] makes, in the same order and in a
   cache epoch of their own, each inside a span named after its layer. The
   epoch's merge falls to the root span. *)
let process_traced rec_ ~request cache cat ~label sql =
  let span name f = Span.record rec_ ~name ~request f in
  span "request" (fun () ->
      Analysis_cache.epoch cache @@ fun () ->
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      (match span "sql.parse" (fun () -> Sql.Parser.parse_query sql) with
       | exception Sql.Parser.Parse_error msg ->
         Format.fprintf ppf "%s parse error: %s@." label msg
       | exception Sql.Lexer.Lex_error (msg, off) ->
         Format.fprintf ppf "%s lex error at byte %d: %s@." label off msg
       | q -> (
         try
           (match q with
            | Sql.Ast.Spec s when s.Sql.Ast.group_by = [] ->
              let alg1 =
                span "uniqueness.alg1" (fun () ->
                    Uniqueness.Algorithm1.distinct_is_redundant ~cache cat s)
              in
              let fd =
                span "uniqueness.fd" (fun () ->
                    Uniqueness.Fd_analysis.distinct_is_redundant ~cache cat s)
              in
              Format.fprintf ppf "%s unique(alg1)=%b unique(fd)=%b" label alg1 fd
            | _ -> Format.fprintf ppf "%s unique=n/a" label);
           let final, outcomes =
             span "uniqueness.rewrite" (fun () ->
                 Uniqueness.Rewrite.apply_all ~cache cat q)
           in
           Format.fprintf ppf " rewrites=%d" (List.length outcomes);
           if outcomes <> [] then
             Format.fprintf ppf " final=%s"
               (span "sql.pretty" (fun () -> Sql.Pretty.query final));
           Format.fprintf ppf "@."
         with e -> Format.fprintf ppf "%s error: %s@." label (Printexc.to_string e)));
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

let replay_traced rec_ requests =
  let cat = Lazy.force catalog in
  let cache = fresh_cache () in
  let iter0 = Cache.Counters.snapshot () in
  let latencies = ref [] in
  let replies =
    Cache.Runtime.with_enabled true (fun () ->
        List.mapi
          (fun i (r : S.request) ->
            let label = Printf.sprintf "[%d]" (i + 1) in
            let t0 = M.now_ns () in
            let reply = process_traced rec_ ~request:(i + 1) cache cat ~label r.S.sql in
            latencies := (i + 1, Int64.to_float (Int64.sub (M.now_ns ()) t0)) :: !latencies;
            reply)
          requests)
  in
  let d = Cache.Counters.diff iter0 (Cache.Counters.snapshot ()) in
  (replies, !latencies, Analysis_cache.counters cache, Cache.Runtime.counters (), d)

(* ---- runs ---- *)

(* Percentiles over windows of whole malformed-request periods of the
   stream, in the order the requests were sent, so that every window holds
   the same share of parse errors (see [Summary.windowed]). *)
let latency_metrics lat =
  let pick p =
    match Summary.windowed ~unit:S.malformed_every lat p with
    | Some v -> v
    | None ->
      failwith (Printf.sprintf "%d samples cannot back p%g" (Array.length lat) (p *. 100.))
  in
  (pick 0.5, pick 0.9, pick 0.99)

(* The first [rss_requests] requests of the stream, over the socket with
   a pipeline window, checked; then the server's peak resident set. *)
let server_peak_mb s t ~seed =
  let g = S.generator ~seed in
  let left = ref rss_requests in
  let next () =
    if !left = 0 then None
    else begin
      decr left;
      Some (S.next g)
    end
  in
  ignore (closed_loop s t ~next ~window:throughput_window ~seconds:infinity);
  match M.hwm_mb ~pid:(string_of_int s.pid) () with
  | Some mb -> mb
  | None -> failwith "cannot read the server's VmHWM"

(* The timed figures are taken in-process, one request at a time through
   [process] (the server's payload, in its epoch) against a cache of the
   server's capacity. Over the socket, the same stream's figures swung by
   0.15-0.5 (quartile spread over median) between runs on the 2-core
   virtual host this was built on, because the host stalls either process
   for milliseconds at a time. The real server still gives [setup_s] and
   [peak_rss_mb] and answers the warm-up and the stream's head over its
   socket, checked; the traced run measures the socket path in full
   ([serve.*]). *)
let max_rate = 50_000.

let run_e2e ~exe ~socket ~seed ~seconds =
  let t = { attempted = 0; failed = 0 } in
  let s, setup_s = start_repeated ~exe ~socket in
  let peak_mb =
    Fun.protect
      ~finally:(fun () -> stop s)
      (fun () ->
        warm_up s t ~seed;
        server_peak_mb s t ~seed)
  in
  let cat = Lazy.force catalog in
  let cache = fresh_cache () in
  let process (r : S.request) = process cache cat ~label:"[1]" r.S.sql in
  let lat, words, elapsed =
    Cache.Runtime.with_enabled true (fun () ->
        List.iter (fun r -> ignore (judge t r (Some (process r)))) (S.warmup ~seed);
        let g = S.generator ~seed in
        (* a flat array sized up front: storing a sample allocates nothing *)
        let lat = Float.Array.make (int_of_float (seconds *. max_rate)) 0. in
        let n = ref 0 and words = ref 0. in
        let start = M.now_s () in
        while M.now_s () -. start < seconds && !n < Float.Array.length lat do
          let r = S.next g in
          let w0 = M.words_allocated () in
          let t0 = M.now_s () in
          let reply = process r in
          let t1 = M.now_s () in
          words := !words +. (M.words_allocated () -. w0);
          Float.Array.set lat !n ((t1 -. t0) *. 1e3);
          incr n;
          ignore (judge t r (Some reply))
        done;
        (Array.init !n (Float.Array.get lat), !words, M.now_s () -. start))
  in
  let n = float_of_int (Array.length lat) in
  let p50, p90, _ = latency_metrics lat in
  let metrics =
    [ Report.metric "setup_s" "s" setup_s;
      Report.metric "throughput_qps" "q/s" (n /. elapsed);
      Report.metric "latency_p50_ms" "ms" p50;
      Report.metric "latency_p90_ms" "ms" p90;
      Report.metric "alloc_words_per_row" "words" (words /. n);
      Report.metric "peak_rss_mb" "MB" peak_mb ]
  in
  Printf.printf
    "serve_mix: %d server starts, %d requests to the server, %d analysed in-process\n"
    setups rss_requests (Array.length lat);
  (metrics, t.attempted, t.failed)

let run_traced ~exe ~socket ~seed ~seconds ~spans_out =
  let t = { attempted = 0; failed = 0 } in
  let p = load_pass ~exe ~socket ~seed ~seconds t in
  let p50, p90, p99 = latency_metrics p.latencies in
  let requests = List.filteri (fun i _ -> i < traced_replay) p.sent in
  (* untraced and traced replays alternate, after one discarded warm-up
     replay, in the order untraced, traced, traced, untraced; each starts
     from empty caches, as the server did. The spans and counters are
     those of the second traced replay. *)
  let timed f =
    let t0 = M.now_s () in
    let r = f () in
    (r, M.now_s () -. t0)
  in
  ignore (replay_untraced requests);
  let plain, u1 = timed (fun () -> replay_untraced requests) in
  let _, t1 = timed (fun () -> replay_traced (Span.create ()) requests) in
  let rec_ = Span.create () in
  let (traced, latencies, c, m, iters), t2 = timed (fun () -> replay_traced rec_ requests) in
  let _, u2 = timed (fun () -> replay_untraced requests) in
  List.iter2
    (fun (r : S.request) (a, b) ->
      if a = b then ignore (judge t r (Some a))
      else begin
        t.attempted <- t.attempted + 1;
        t.failed <- t.failed + 1;
        Printf.eprintf "perfbench: replay differs from Serve.Reply.process:\n%s%s%!" a b
      end)
    requests (List.combine traced plain);
  let spans = Span.spans rec_ in
  let self, sums = Layers.self_times ~root:"request" spans in
  let unattributed, complaint = Layers.unattributed ~sums latencies in
  Option.iter
    (fun msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      t.failed <- t.failed + 1)
    complaint;
  let rate hits misses =
    float_of_int hits /. float_of_int (max 1 (hits + misses))
  in
  let n = float_of_int (List.length requests) in
  let values =
    self
    @ [ ("cache.verdict_hit_rate", rate c.Cache.Lru.c_hits c.Cache.Lru.c_misses);
        ("cache.verdict_evictions", float_of_int c.Cache.Lru.c_evictions);
        ("cache.closure_memo_hit_rate", rate m.Cache.Lru.c_hits m.Cache.Lru.c_misses);
        ("cache.closure_iterations", float_of_int iters.Cache.Counters.iterations /. n);
        ("serve.server_p50_us", p.latency_stats.analyze_p50_us);
        ("serve.server_p99_us", p.latency_stats.analyze_p99_us);
        ("serve.inflight_peak", float_of_int p.stats.inflight_peak);
        ("serve.rejected", float_of_int p.stats.rejected);
        ("serve.latency_p50_ms", p50);
        ("serve.latency_p90_ms", p90);
        ("serve.latency_p99_ms", p99);
        ("serve.throughput_qps", p.closed_rate);
        ("trace.overhead_frac", ((t1 +. t2) /. (u1 +. u2)) -. 1.) ]
  in
  Option.iter (fun path -> Spans_file.write path spans) spans_out;
  Printf.printf
    "serve_mix (traced): the stream's first %d requests replayed 5 times, %.3f%% of the \
     traced latency outside every span\n"
    (List.length requests) (unattributed *. 100.);
  (Layers.metrics values, t.attempted, t.failed)
