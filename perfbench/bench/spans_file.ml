(* Spans leave memory only here, once a traced run has ended: one line
   per span, [id parent request name start_ns stop_ns], parent -1 for a
   root. *)

module Span = Perfbench_core.Span

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id parent request name start_ns stop_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d %d %d %s %Ld %Ld\n" s.Span.id
            (Option.value ~default:(-1) s.Span.parent)
            s.Span.request s.Span.name s.Span.start_ns s.Span.stop_ns)
        spans)
