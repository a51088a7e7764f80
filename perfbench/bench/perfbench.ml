(* perfbench --workload NAME --seed N --seconds S --trace 0|1
             [--server-exe PATH] [--workdir DIR]

   Runs one workload and prints, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer split of
   a separate traced run. See ../README.md. *)

module Report = Perfbench_core.Report

let usage () =
  prerr_endline
    "usage: perfbench --workload scale_1m|paper_mix|serve_mix --seed N \
     --seconds S --trace 0|1 [--server-exe PATH] [--workdir DIR]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = float_of_int (int "seconds") and trace = int "trace" = 1 in
  let workdir = Option.value ~default:"." (Hashtbl.find_opt args "workdir") in
  let spans_out =
    if trace then Some (Filename.concat workdir (Printf.sprintf "spans-%s-%d.txt" workload seed))
    else None
  in
  let run () =
    match workload with
    | "scale_1m" | "paper_mix" ->
      let spec =
        if workload = "scale_1m" then Query_workload.scale_1m
        else Query_workload.paper_mix
      in
      if trace then Query_workload.run_traced spec ~seed ~seconds ~spans_out
      else Query_workload.run_e2e spec ~seed ~seconds
    | "serve_mix" ->
      (* a server that dies mid-run must surface as EPIPE, not kill us *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let exe = get "server-exe" in
      let socket = Filename.concat workdir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
      if trace then Serve_workload.run_traced ~exe ~socket ~seed ~seconds ~spans_out
      else Serve_workload.run_e2e ~exe ~socket ~seed ~seconds
    | _ -> usage ()
  in
  match run () with
  | metrics, attempted, failed ->
    Format.printf "%s seed %d (%s):@." workload seed
      (if trace then "per-layer, traced" else "end-to-end");
    Format.printf "%a" Report.pp_metrics metrics;
    Format.printf "  %-32s %14.6f ratio (%d of %d operations)@." "failed_frac"
      (float_of_int failed /. float_of_int (max 1 attempted))
      failed attempted;
    print_endline (Report.json ~attempted ~failed metrics)
  | exception e ->
    Printf.eprintf "perfbench: %s failed: %s\n" workload (Printexc.to_string e);
    exit 1
