(* Tests of the benchmark's own logic: the percentile rule, span self
   times, result checksums and serve-reply verdicts. *)

open Perfbench_core
module Value = Sqlval.Value

let samples n = Array.init n (fun i -> float_of_int (n - i))

let percentile_rule () =
  let open Alcotest in
  check (option (float 0.)) "p90 of 99 samples: 9 beyond" None
    (Summary.percentile (samples 99) 0.9);
  check (option (float 0.)) "p90 of 100 samples: 10 beyond" (Some 90.)
    (Summary.percentile (samples 100) 0.9);
  check (option (float 0.)) "p99 of 999 samples" None
    (Summary.percentile (samples 999) 0.99);
  check (option (float 0.)) "p99 of 1000 samples" (Some 990.)
    (Summary.percentile (samples 1000) 0.99);
  check (option (float 0.)) "median of 19" None (Summary.percentile (samples 19) 0.5);
  check (option (float 0.)) "median of 20" (Some 10.) (Summary.percentile (samples 20) 0.5);
  check (float 0.) "middle of an even count" 2.5 (Summary.middle [| 4.; 1.; 3.; 2. |])

let windowed_rule () =
  let open Alcotest in
  let w ~unit xs p = Summary.windowed ~unit xs p in
  (* a run that is fast for its first half and slow for its second: the
     pooled median is the fast speed, the windowed one the mean of both *)
  let run = Array.init 80 (fun i -> if i < 40 then 1. else 3.) in
  check (option (float 0.)) "pooled median" (Some 1.) (Summary.percentile run 0.5);
  check (option (float 0.)) "windowed median" (Some 2.) (w ~unit:20 run 0.5);
  (* windows are whole units: p90 over rounds of 7 needs 15 of them *)
  check (option (float 0.)) "p90 of 104 samples in units of 7" None
    (w ~unit:7 (samples 104) 0.9);
  check (option (float 0.)) "p90 of 105 samples in units of 7" (Some 95.)
    (w ~unit:7 (samples 105) 0.9);
  check (option (float 0.)) "median of 19 in units of 7" None (w ~unit:7 (samples 19) 0.5);
  (* samples short of a second window join the last one *)
  check (option (float 0.)) "leftovers join the last window" (Some 13.)
    (w ~unit:10 (samples 25) 0.5)

let span ?parent id start stop =
  { Span.id; name = "s" ^ string_of_int id; start_ns = Int64.of_int start;
    stop_ns = Int64.of_int stop; parent; request = 0 }

let self_time () =
  let root = span 0 0 100 in
  (* overlapping children count once; a child running past its parent is
     clipped *)
  let kids = [ span ~parent:0 1 10 30; span ~parent:0 2 20 50; span ~parent:0 3 90 120 ] in
  Alcotest.(check int64) "duration minus covered union" 50L (Span.self_ns ~children:kids root);
  Alcotest.(check int64) "no children" 100L (Span.self_ns ~children:[] root);
  let r = Span.create () in
  Span.record r ~name:"root" ~request:7 (fun () ->
      Span.record r ~name:"a" ~request:7 (fun () ->
          Span.record r ~name:"b" ~request:7 (fun () -> Unix.sleepf 0.002));
      Span.record r ~name:"c" ~request:7 (fun () -> Unix.sleepf 0.001));
  let spans = Span.spans r in
  let find n = List.find (fun s -> s.Span.name = n) spans in
  Alcotest.(check (option int)) "parent of b" (Some (find "a").Span.id) (find "b").Span.parent;
  Alcotest.(check (option int)) "root has none" None (find "root").Span.parent;
  let total =
    List.fold_left (fun a (_, self) -> Int64.add a self) 0L (Span.self_times spans)
  in
  Alcotest.(check int64) "self times add up to the root" (Span.duration_ns (find "root")) total

let row k s = [| Value.Int k; Value.String s; Value.Null |]
let rows = List.init 1000 (fun i -> row i (string_of_int (i mod 7)))

let checksum () =
  let base = Checksum.of_rows rows in
  Alcotest.(check bool) "order-insensitive" true
    (Checksum.equal base (Checksum.of_rows (List.rev rows)));
  let corrupt f = List.mapi (fun i r -> if i = 500 then f r else r) rows in
  let differs name rs =
    Alcotest.(check bool) name false (Checksum.equal base (Checksum.of_rows rs))
  in
  differs "one value changed" (corrupt (fun r -> [| Value.Int 501; r.(1); r.(2) |]));
  differs "one null filled" (corrupt (fun r -> [| r.(0); r.(1); Value.Int 0 |]));
  differs "two columns swapped" (corrupt (fun r -> [| r.(0); r.(2); r.(1) |]));
  differs "one row duplicated" (row 0 "0" :: rows);
  differs "one row dropped" (List.tl rows);
  let a = Checksum.acc () in
  List.iter (Checksum.feed a) rows;
  Alcotest.(check bool) "accumulator agrees" true (Checksum.equal base (Checksum.result a))

let replies () =
  let expected = "unique(alg1)=true unique(fd)=true" in
  let judge r = Reply.judge ~expected r in
  let failed name o = Alcotest.(check bool) name true (Reply.failed o) in
  Alcotest.(check bool) "right verdict" false
    (Reply.failed (judge (Some "[4] unique(alg1)=true unique(fd)=true rewrites=1 final=X\n")));
  failed "overloaded reply" (judge (Some "[4] overloaded\n"));
  Alcotest.(check bool) "classified overloaded" true (judge (Some "[4] overloaded") = Reply.Overloaded);
  failed "missing reply" (judge None);
  Alcotest.(check bool) "classified missing" true (judge None = Reply.Missing);
  failed "wrong verdict" (judge (Some "[4] unique(alg1)=false unique(fd)=false rewrites=0"));
  Alcotest.(check bool) "expected parse error is correct" false
    (Reply.failed
       (Reply.judge ~expected:"parse error: " (Some "[9] parse error: expected scalar")))

let () =
  Alcotest.run "perfbench"
    [ ("summary",
        [ Alcotest.test_case "percentile needs 10 beyond" `Quick percentile_rule;
          Alcotest.test_case "windowed percentile" `Quick windowed_rule ]);
      ("span", [ Alcotest.test_case "self time" `Quick self_time ]);
      ("checksum", [ Alcotest.test_case "one corrupted row" `Quick checksum ]);
      ("reply", [ Alcotest.test_case "overloaded or missing fails" `Quick replies ]) ]
