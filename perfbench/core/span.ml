type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int option;
  request : int;
}

type recorder = {
  mutable next_id : int;
  mutable open_ : int list;  (** ids of open spans, innermost first *)
  mutable done_ : span list;  (** completed spans, newest first *)
}

let create () = { next_id = 0; open_ = []; done_ = [] }

let record r ~name ~request f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.open_ with p :: _ -> Some p | [] -> None in
  r.open_ <- id :: r.open_;
  let start_ns = Measure.now_ns () in
  let close () =
    let stop_ns = Measure.now_ns () in
    r.open_ <- List.tl r.open_;
    r.done_ <- { id; name; start_ns; stop_ns; parent; request } :: r.done_
  in
  Fun.protect ~finally:close f

let spans r = List.rev r.done_
let duration_ns s = Int64.sub s.stop_ns s.start_ns

let self_ns ~children s =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max c.start_ns s.start_ns and b = min c.stop_ns s.stop_ns in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  (* union of the sorted intervals, swept left to right *)
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add acc (Int64.sub cb ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0L, None) clipped
  in
  let covered =
    match last with
    | Some (a, b) -> Int64.add covered (Int64.sub b a)
    | None -> covered
  in
  Int64.sub (duration_ns s) covered

let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace kids p (s :: Option.value ~default:[] (Hashtbl.find_opt kids p))
      | None -> ())
    spans;
  List.map
    (fun s ->
      let children = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
      (s, self_ns ~children s))
    spans
