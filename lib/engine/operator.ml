module Value = Sqlval.Value

type t = {
  schema : Schema.Relschema.t;
  order : Schema.Attr.t list;
  next : unit -> Relation.row option;
  rewind : unit -> unit;
  close : unit -> unit;
}

let schema t = t.schema
let order t = t.order
let next t = t.next ()
let rewind t = t.rewind ()
let close t = t.close ()

let no_op () = ()

let of_lazy ?(order = []) ?(tick = no_op) schema produce =
  (* Materialization is deferred to the first [next] so that building a
     pipeline never runs it (the planner compiles plans purely to inspect
     order provenance). *)
  let source = ref None in
  let cursor = ref [] in
  let force () =
    match !source with
    | Some rows -> rows
    | None ->
      let rows = produce () in
      source := Some rows;
      cursor := rows;
      rows
  in
  {
    schema;
    order;
    next =
      (fun () ->
        ignore (force ());
        match !cursor with
        | [] -> None
        | r :: rest ->
          cursor := rest;
          tick ();
          Some r);
    rewind = (fun () -> cursor := (match !source with Some rows -> rows | None -> []));
    close = (fun () -> source := Some []; cursor := []);
  }

let of_rows ?order ?tick schema rows = of_lazy ?order ?tick schema (fun () -> rows)

let filter pred op =
  let rec pull () =
    match op.next () with
    | None -> None
    | Some r -> if pred r then Some r else pull ()
  in
  { op with next = pull }

let map ?(order = []) schema f op =
  {
    schema;
    order;
    next = (fun () -> Option.map f (op.next ()));
    rewind = op.rewind;
    close = op.close;
  }

(* Drain a stream into a list, in stream order. *)
let drain op =
  let rec go acc =
    match op.next () with Some r -> go (r :: acc) | None -> List.rev acc
  in
  go []

(* The pairing loop [product] and the joins share: each [probe] row [x]
   is followed by [x @ y] for every [y] of [matches x], in order, so the
   output inherits the probe's order (a fixed probe row's pairs are
   contiguous). [reset] and [release] clear the caller's state on rewind
   and close; [tick] fires once per pair. *)
let pairs ?(tick = no_op) schema ~matches ~reset ~release probe =
  let current = ref [||] in
  let pending = ref [] in
  let rec pull () =
    match !pending with
    | y :: rest ->
      pending := rest;
      tick ();
      Some (Array.append !current y)
    | [] ->
      (match probe.next () with
       | None -> None
       | Some x ->
         current := x;
         pending := matches x;
         pull ())
  in
  {
    schema;
    order = probe.order;
    next = pull;
    rewind =
      (fun () ->
        probe.rewind ();
        reset ();
        pending := []);
    close =
      (fun () ->
        probe.close ();
        release ();
        pending := []);
  }

let product ?tick left right =
  (* Block nested loop: the right input is drained once into a buffer, then
     replayed per left row, so a streaming right child is only evaluated
     once. *)
  let buffer = ref None in
  let right_rows () =
    match !buffer with
    | Some rows -> rows
    | None ->
      let rows = drain right in
      buffer := Some rows;
      rows
  in
  pairs ?tick
    (Schema.Relschema.product left.schema right.schema)
    ~matches:(fun _ -> right_rows ())
    ~reset:no_op
    ~release:(fun () ->
      right.close ();
      buffer := Some [])
    left

(* Join keys are value arrays, compared and hashed as rows
   ([Relation.Row_tbl], [Relation.compare_rows]), so they follow the same
   [Value.compare_total] as DISTINCT. They follow WHERE-equality
   semantics: a NULL in any key column means the row can match nothing
   (unknown, not equal), so it is dropped from both the build side and
   the probe. [semi_join ~null_equal:true] switches to the
   null-comparison operator used by set operations. *)
let join_key ~null_equal idxs (row : Relation.row) =
  let key = Array.make (Array.length idxs) Value.Null in
  let null = ref false in
  for j = 0 to Array.length idxs - 1 do
    let v = row.(idxs.(j)) in
    if Value.is_null v then null := true;
    key.(j) <- v
  done;
  if !null && not null_equal then None else Some key

(* Drain [build] into a fresh key table, calling [add tbl key row] for
   every row with a key. *)
let build_table ~stats ~key ~add build =
  let tbl = Relation.Row_tbl.create 256 in
  let rec go () =
    match build.next () with
    | None -> tbl
    | Some row ->
      stats.Stats.join_build_rows <- stats.Stats.join_build_rows + 1;
      (match key row with Some k -> add tbl k row | None -> ());
      go ()
  in
  go ()

exception Certificate_violation of string

let hash_join ?tick ~stats ?(unique_build = false) ~probe_key ~build_key
    probe build =
  (* The build side is drained exactly once, on the first probe pull —
     compiling the pipeline stays pure. Unique mode stores one row per key
     (the planner certified the build join columns cover a candidate key)
     and each matching probe early-exits with that row. A second build row
     on a key means the certificate was wrong: fail loudly rather than
     drop the row. *)
  let probe_key = Array.of_list probe_key
  and build_key = Array.of_list build_key in
  let table = ref None in
  let force_table () =
    match !table with
    | Some tbl -> tbl
    | None ->
      if unique_build then
        stats.Stats.unique_builds <- stats.Stats.unique_builds + 1;
      let tbl =
        build_table ~stats
          ~key:(join_key ~null_equal:false build_key)
          ~add:(fun tbl k row ->
            match Relation.Row_tbl.find_opt tbl k with
            | Some _ when unique_build ->
              raise (Certificate_violation "unique-build")
            | bucket ->
              Relation.Row_tbl.replace tbl k
                (row :: Option.value ~default:[] bucket))
          build
      in
      (* buckets were built by consing: back to build order, once *)
      if not unique_build then
        Relation.Row_tbl.filter_map_inplace (fun _ b -> Some (List.rev b)) tbl;
      table := Some tbl;
      tbl
  in
  pairs ?tick
    (Schema.Relschema.product probe.schema build.schema)
    ~matches:(fun x ->
      let tbl = force_table () in
      stats.Stats.join_probe_rows <- stats.Stats.join_probe_rows + 1;
      stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
      match join_key ~null_equal:false probe_key x with
      | None -> []
      | Some k ->
        (match Relation.Row_tbl.find_opt tbl k with
         | None -> []
         | Some bucket ->
           if unique_build then
             stats.Stats.probe_early_exits <- stats.Stats.probe_early_exits + 1;
           bucket))
    ~reset:no_op
    ~release:(fun () ->
      build.close ();
      table := Some (Relation.Row_tbl.create 1))
    probe

(* One build-key count per table slot: [total] build rows carry the key,
   [left] of them have not yet cancelled a probe row. *)
type count = { mutable total : int; mutable left : int }

let semi_join ?(anti = false) ?(null_equal = false) ~stats ~probe_key
    ~build_key probe build =
  (* Output schema and order are the probe's. Each build row cancels at
     most one probe row with its key: a semi emits the cancelled rows, an
     anti the rest. Over a duplicate-free probe that is the set test, and
     over bags it yields INTERSECT ALL's min(j, k) and EXCEPT ALL's
     max(j - k, 0) copies. Rewinding restores the counts. *)
  let probe_key = Array.of_list probe_key
  and build_key = Array.of_list build_key in
  let table = ref None in
  let force_table () =
    match !table with
    | Some tbl -> tbl
    | None ->
      let tbl =
        build_table ~stats ~key:(join_key ~null_equal build_key)
          ~add:(fun tbl k _ ->
            match Relation.Row_tbl.find_opt tbl k with
            | Some c ->
              c.total <- c.total + 1;
              c.left <- c.left + 1
            | None -> Relation.Row_tbl.add tbl k { total = 1; left = 1 })
          build
      in
      table := Some tbl;
      tbl
  in
  let rec pull () =
    match probe.next () with
    | None -> None
    | Some x ->
      let tbl = force_table () in
      stats.Stats.join_probe_rows <- stats.Stats.join_probe_rows + 1;
      stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
      let cancelled =
        match join_key ~null_equal probe_key x with
        | None -> false
        | Some k ->
          (match Relation.Row_tbl.find_opt tbl k with
           | Some c when c.left > 0 ->
             c.left <- c.left - 1;
             true
           | Some _ | None -> false)
      in
      if cancelled <> anti then Some x else pull ()
  in
  {
    probe with
    next = pull;
    rewind =
      (fun () ->
        probe.rewind ();
        Option.iter
          (Relation.Row_tbl.iter (fun _ c -> c.left <- c.total))
          !table);
    close =
      (fun () ->
        probe.close ();
        build.close ();
        table := Some (Relation.Row_tbl.create 1));
  }

(* Materializing ORDER BY — the ablation baseline the planner elides when
   order provenance already proves the stream sorted. The comparator is
   [Value.compare_total] per key column, so NULLs sort first and the
   result agrees byte-for-byte with [Database.load_sorted] verification
   and [merge_join]. The sort is stable: on an input already sorted on
   the keys it is the identity, which is what makes the elided strategy
   list-equal to this baseline (equal-key rows keep arrival order in
   both). *)
let sort ~stats keys op =
  let idxs = List.map (Schema.Relschema.index_of op.schema) keys in
  let compare_keys (a : Relation.row) (b : Relation.row) =
    stats.Stats.comparisons <- stats.Stats.comparisons + 1;
    let rec go = function
      | [] -> 0
      | i :: rest ->
        (match Value.compare_total a.(i) b.(i) with 0 -> go rest | c -> c)
    in
    go idxs
  in
  of_lazy ~order:keys op.schema (fun () ->
      let rows = drain op in
      op.close ();
      stats.Stats.sorts <- stats.Stats.sorts + 1;
      stats.Stats.sorted_rows <- stats.Stats.sorted_rows + List.length rows;
      List.stable_sort compare_keys rows)

(* Streaming sort-merge join: legal only when the planner certified both
   inputs' verified orders cover the join keys as a prefix (the engine
   trusts the certificate blindly, like [hash_join]'s unique-build mode).
   Matches [hash_join] semantics exactly — NULL join keys match nothing
   and are dropped from both sides — and emits probe-major, build rows in
   build order within a key group, so its output is list-equal to a hash
   join over the same (ordered) inputs. One key group of the build side
   is the only buffered state. *)
let merge_join ?tick ~stats ~probe_key ~build_key probe build =
  stats.Stats.merge_joins <- stats.Stats.merge_joins + 1;
  let probe_key = Array.of_list probe_key
  and build_key = Array.of_list build_key in
  let compare_keys a b =
    stats.Stats.comparisons <- stats.Stats.comparisons + 1;
    Relation.compare_rows a b
  in
  (* lookahead: the next build row not yet assigned to a group *)
  let build_ahead = ref None in
  let build_done = ref false in
  let next_build () =
    match !build_ahead with
    | Some r ->
      build_ahead := None;
      Some r
    | None ->
      if !build_done then None
      else begin
        let rec pull () =
          match build.next () with
          | None ->
            build_done := true;
            None
          | Some r ->
            stats.Stats.join_build_rows <- stats.Stats.join_build_rows + 1;
            (match join_key ~null_equal:false build_key r with
             | None -> pull ()  (* NULL join key: matches nothing *)
             | Some k -> Some (k, r))
        in
        pull ()
      end
  in
  (* current build group: all build rows sharing [group_key], in order *)
  let group_key = ref None in
  let group = ref [] in
  (* Advance the build cursor until its key is >= [k]; collect the group
     at [k] (possibly empty). Build keys are nondecreasing (certified), so
     skipped groups can never match a later probe key either: probe keys
     are nondecreasing too. *)
  let load_group k =
    let rec skip () =
      match next_build () with
      | None -> []
      | Some (bk, r) ->
        let c = compare_keys bk k in
        if c < 0 then skip ()
        else if c = 0 then collect [ r ]
        else begin
          build_ahead := Some (bk, r);
          []
        end
    and collect acc =
      match next_build () with
      | None -> List.rev acc
      | Some (bk, r) ->
        if compare_keys bk k = 0 then collect (r :: acc)
        else begin
          build_ahead := Some (bk, r);
          List.rev acc
        end
    in
    group_key := Some k;
    group := skip ()
  in
  let clear ~done_ () =
    build_ahead := None;
    build_done := done_;
    group_key := None;
    group := []
  in
  pairs ?tick
    (Schema.Relschema.product probe.schema build.schema)
    ~matches:(fun x ->
      stats.Stats.join_probe_rows <- stats.Stats.join_probe_rows + 1;
      match join_key ~null_equal:false probe_key x with
      | None -> []
      | Some k ->
        let same =
          match !group_key with
          | Some gk -> compare_keys gk k = 0
          | None -> false
        in
        if not same then load_group k;
        !group)
    ~reset:(fun () ->
      build.rewind ();
      clear ~done_:false ())
    ~release:(fun () ->
      build.close ();
      clear ~done_:true ())
    probe

let order_covers schema order =
  let target = Schema.Relschema.attr_set schema in
  let rec go covered = function
    | _ when Schema.Attr.Set.equal covered target -> true
    | [] -> false
    | a :: rest ->
      if Schema.Attr.Set.mem a target then
        go (Schema.Attr.Set.add a covered) rest
      else false
  in
  go Schema.Attr.Set.empty order

let hash_unique ?(strategy = "hash-unique") ~stats op =
  let seen = Relation.Row_tbl.create 256 in
  Stats.record_dedup stats ~strategy ~state:0;
  let rec pull () =
    match op.next () with
    | None -> None
    | Some r ->
      stats.Stats.dedup_rows_in <- stats.Stats.dedup_rows_in + 1;
      stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
      if Relation.Row_tbl.mem seen r then pull ()
      else begin
        Relation.Row_tbl.add seen r ();
        stats.Stats.dedup_state_peak <-
          max stats.Stats.dedup_state_peak (Relation.Row_tbl.length seen);
        stats.Stats.dedup_rows_out <- stats.Stats.dedup_rows_out + 1;
        Some r
      end
  in
  {
    op with
    next = pull;
    rewind =
      (fun () ->
        Relation.Row_tbl.reset seen;
        op.rewind ());
    close =
      (fun () ->
        Relation.Row_tbl.reset seen;
        op.close ());
  }

let sorted_unique ~stats op =
  if not (order_covers op.schema op.order) then None
  else begin
    Stats.record_dedup stats ~strategy:"sorted-unique" ~state:1;
    let prev = ref None in
    let rec pull () =
      match op.next () with
      | None -> None
      | Some r ->
        stats.Stats.dedup_rows_in <- stats.Stats.dedup_rows_in + 1;
        let duplicate =
          match !prev with
          | Some p ->
            stats.Stats.comparisons <- stats.Stats.comparisons + 1;
            Relation.equal_rows p r
          | None -> false
        in
        if duplicate then pull ()
        else begin
          prev := Some r;
          stats.Stats.dedup_rows_out <- stats.Stats.dedup_rows_out + 1;
          Some r
        end
    in
    Some
      {
        op with
        next = pull;
        rewind =
          (fun () ->
            prev := None;
            op.rewind ());
        close =
          (fun () ->
            prev := None;
            op.close ());
      }
  end

let elided_unique ~stats op =
  stats.Stats.distinct_elisions <- stats.Stats.distinct_elisions + 1;
  Stats.record_dedup stats ~strategy:"elided-unique" ~state:0;
  let pull () =
    match op.next () with
    | None -> None
    | Some r ->
      stats.Stats.dedup_rows_in <- stats.Stats.dedup_rows_in + 1;
      stats.Stats.dedup_rows_out <- stats.Stats.dedup_rows_out + 1;
      Some r
  in
  { op with next = pull }

let to_rows op =
  let rows = drain op in
  op.close ();
  rows

let to_relation op = Relation.make op.schema (to_rows op)
