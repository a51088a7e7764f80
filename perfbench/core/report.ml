type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* metric names and units are the benchmark's own identifiers: letters,
   digits and [_ . / % -], nothing JSON would need to escape *)
let json ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed (String.concat ", " m)

let pp_metrics ppf metrics =
  List.iter
    (fun { name; value; unit } ->
      Format.fprintf ppf "  %-32s %14.4f %s@." name value unit)
    metrics
