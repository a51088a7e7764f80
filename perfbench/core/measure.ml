let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let ns_to_ms d = Int64.to_float d *. 1e-6

let words_allocated () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. (major -. promoted)

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let hwm_mb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> Some (float_of_int kb /. 1024.)
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
          scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let reset_hwm () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
    try
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc "5";
          flush oc);
      true
    with Sys_error _ -> false)
