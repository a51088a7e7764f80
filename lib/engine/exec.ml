module Value = Sqlval.Value
module Truth = Sqlval.Truth

type distinct_impl =
  | Sort_distinct
  | Stream_hash
  | Stream_sorted
  | Stream_elided

type exists_impl = Naive_exists | Indexed_exists

(* ORDER BY implementation: the materializing sort is the ablation
   baseline; the elided pass-through is legal only under an
   [Optimizer.Order_plan] certificate (stream provenance + order
   dependencies prove the stream already sorted). The engine trusts the
   certificate blindly — the analyzers live above the engine. *)
type sort_impl = Materialize_sort | Elided_sort

type join_step = {
  js_leaf : int;
  js_unique_build : bool;
  js_merge : bool;
      (* certified: both inputs' verified orders cover the join keys, so
         the streaming merge join is legal *)
}

type join_order = {
  jo_first : int;
  jo_steps : join_step list;
}

type join_impl =
  | Nested_join
  | Hash_join
  | Planned_join of join_order

type config = {
  distinct_impl : distinct_impl;
  join_impl : join_impl;
  sort_impl : sort_impl;
  exists_impl : exists_impl;
  logic : Sqlval.Logic_mode.t;
  stats : Stats.t;
}

let default_config () =
  {
    distinct_impl = Sort_distinct;
    join_impl = Hash_join;
    sort_impl = Materialize_sort;
    exists_impl = Naive_exists;
    logic = Sqlval.Logic_mode.default;
    stats = Stats.create ();
  }

exception Unbound_column of Schema.Attr.t
exception Unbound_host of string

(* Entries in each of [compile]'s per-statement caches (scans, EXISTS
   indexes); overflow evicts LRU. *)
let statement_cache_capacity = 64

(* A frame is one enclosing query block's current tuple. Lookup walks frames
   innermost-first, so a correlated subquery sees its own tables before the
   outer query's. *)
type frame = {
  fr_schema : Schema.Relschema.t;
  fr_row : Relation.row;
}

let lookup_in_frames frames a =
  let rec go = function
    | [] -> raise (Unbound_column a)
    | fr :: rest ->
      (match Schema.Relschema.find_index fr.fr_schema a with
       | Some i -> fr.fr_row.(i)
       | None -> go rest
       | exception Failure msg -> failwith msg)
  in
  go frames

(* The longest prefix of [in_order] fully retained by the projection,
   renamed to output attributes. Stops at the first order attribute the
   projection drops: a retained column further down cannot extend a
   lexicographic guarantee across a missing sort key. When the projection
   duplicates an input column, every output copy is emitted (the later,
   renamed copies carry the same values, so a stream sorted on the first
   copy is sorted on all of them) — without this, [Operator.order_covers]
   could never certify a select list with a repeated column. *)
let project_order in_schema in_order items out_schema =
  let pos_of a =
    match Schema.Relschema.find_index in_schema a with
    | Some i -> Some i
    | None -> None
    | exception Failure _ -> None
  in
  let mapping =
    List.concat
      (List.mapi
         (fun j item ->
           match item with
           | Relalg.Plan.Pcol a ->
             (match pos_of a with Some i -> [ (i, j) ] | None -> [])
           | Relalg.Plan.Pconst _ | Relalg.Plan.Phost _ -> [])
         items)
  in
  let out_cols = Array.of_list (Schema.Relschema.columns out_schema) in
  let rec go = function
    | [] -> []
    | a :: rest ->
      (match pos_of a with
       | Some i ->
         (match
            List.filter_map
              (fun (i', j) -> if i' = i then Some j else None)
              mapping
          with
          | [] -> []
          | js ->
            List.map (fun j -> out_cols.(j).Schema.Relschema.attr) js
            @ go rest)
       | None -> [])
  in
  go in_order

let compile ?config db ~hosts plan : Operator.t =
  let cfg = match config with Some c -> c | None -> default_config () in
  let stats = cfg.stats in
  let cat = Database.catalog db in
  let lookup_host h =
    match List.assoc_opt (String.uppercase_ascii h) hosts with
    | Some v -> v
    | None -> raise (Unbound_host h)
  in
  (* Both executor-private caches are scoped to this [compile] call — one
     statement — and bounded: a long-lived serve session compiles thousands
     of statements, and even within one statement a pathological query can
     name arbitrarily many table occurrences / subquery shapes. Overflow
     evicts least-recently-used and is counted in
     [Stats.scan_cache_evictions]; eviction only costs a re-scan, never
     correctness. *)
  let add_counting_evictions cache k v =
    let before = (Cache.Lru.counters cache).Cache.Lru.c_evictions in
    Cache.Lru.add cache k v;
    let after = (Cache.Lru.counters cache).Cache.Lru.c_evictions in
    stats.Stats.scan_cache_evictions <-
      stats.Stats.scan_cache_evictions + (after - before)
  in
  (* (table, correlation) -> renamed schema + rows + verified order:
     correlated subqueries re-scan their tables once per outer row and must
     not pay schema construction each time *)
  let scan_cache :
      ( string * string,
        Schema.Relschema.t * Relation.row list * Schema.Attr.t list )
      Cache.Lru.t =
    Cache.Lru.create ~capacity:statement_cache_capacity
  in
  let scan_table table corr =
    let key = (String.uppercase_ascii table, corr) in
    match Cache.Lru.find scan_cache key with
    | Some v -> v
    | None ->
      let def = Catalog.find_exn cat table in
      let schema = Schema.Relschema.rename_rel corr def.Catalog.tbl_schema in
      let rows = (Database.table db table).Relation.rows in
      let order =
        List.map
          (fun c -> Schema.Attr.make ~rel:corr ~name:c)
          (Database.order db table)
      in
      let v = (schema, rows, order) in
      add_counting_evictions scan_cache key v;
      v
  in
  (* memoized per-subquery hash indexes for Indexed_exists *)
  let exists_index_cache :
      (string, Relation.row list Relation.Row_tbl.t) Cache.Lru.t =
    Cache.Lru.create ~capacity:statement_cache_capacity
  in
  let tick_compare () = stats.Stats.comparisons <- stats.Stats.comparisons + 1 in
  (* Evaluate a predicate for the row in [frames] (innermost first). *)
  let rec eval_pred frames pred =
    stats.Stats.predicate_evals <- stats.Stats.predicate_evals + 1;
    Logic.Eval.eval_pred ~logic:cfg.logic
      ~lookup_col:(lookup_in_frames frames)
      ~lookup_host
      ~eval_exists:(fun sub -> Truth.of_bool (exists_spec frames sub))
      pred
  (* EXISTS: correlated nested loop with early exit; in [Indexed_exists]
     mode, single-table subqueries with equi-correlation build a hash index
     on the correlated inner columns once and probe it per outer row (what
     an engine with an index on the correlation key would do). *)
  and exists_spec outer_frames (sub : Sql.Ast.query_spec) =
    stats.Stats.subquery_evals <- stats.Stats.subquery_evals + 1;
    match cfg.exists_impl, sub.from with
    | Indexed_exists, [ _ ] -> exists_indexed outer_frames sub
    | (Naive_exists | Indexed_exists), _ -> exists_naive outer_frames sub

  and exists_naive outer_frames (sub : Sql.Ast.query_spec) =
    let tables =
      List.map
        (fun (f : Sql.Ast.from_item) -> scan_table f.table (Sql.Ast.from_name f))
        sub.from
    in
    let rec loop acc_frames = function
      | [] -> Truth.is_true (eval_pred (acc_frames @ outer_frames) sub.where)
      | (schema, rows, _) :: rest ->
        List.exists
          (fun row ->
            stats.Stats.rows_scanned <- stats.Stats.rows_scanned + 1;
            loop ({ fr_schema = schema; fr_row = row } :: acc_frames) rest)
          rows
    in
    loop [] tables

  and exists_indexed outer_frames (sub : Sql.Ast.query_spec) =
    let f = List.hd sub.from in
    let schema, rows, _ = scan_table f.Sql.Ast.table (Sql.Ast.from_name f) in
    let inner a =
      match Schema.Relschema.find_index schema a with
      | Some i -> Some i
      | None -> None
      | exception Failure _ -> None
    in
    (* correlation conjuncts: inner column = outer-varying scalar *)
    let correlation = function
      | Sql.Ast.Col a, rhs ->
        (match inner a, rhs with
         | Some i, Sql.Ast.Col b when inner b = None -> Some (i, rhs)
         | Some i, (Sql.Ast.Const _ | Sql.Ast.Host _) -> Some (i, rhs)
         | _ -> None)
      | _ -> None
    in
    let key_conjs =
      List.filter_map
        (function
          | Sql.Ast.Cmp (Sql.Ast.Eq, x, y) ->
            (match correlation (x, y) with
             | Some k -> Some k
             | None -> correlation (y, x))
          | _ -> None)
        (Sql.Ast.conjuncts sub.where)
    in
    if key_conjs = [] then exists_naive outer_frames sub
    else begin
      let cache_key =
        f.Sql.Ast.table ^ "/" ^ Sql.Ast.from_name f ^ "/"
        ^ Sql.Pretty.query_spec sub
      in
      let index =
        match Cache.Lru.find exists_index_cache cache_key with
        | Some ix -> ix
        | None ->
          let ix = Relation.Row_tbl.create (List.length rows) in
          List.iter
            (fun row ->
              stats.Stats.rows_scanned <- stats.Stats.rows_scanned + 1;
              let k =
                Array.of_list (List.map (fun (i, _) -> row.(i)) key_conjs)
              in
              if not (Array.exists Value.is_null k) then
                Relation.Row_tbl.replace ix k
                  (row
                  :: Option.value ~default:[] (Relation.Row_tbl.find_opt ix k)))
            rows;
          add_counting_evictions exists_index_cache cache_key ix;
          ix
      in
      stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
      let k =
        Array.of_list
          (List.map
             (fun (_, rhs) ->
               Logic.Eval.eval_scalar
                 ~lookup_col:(lookup_in_frames outer_frames)
                 ~lookup_host rhs)
             key_conjs)
      in
      (not (Array.exists Value.is_null k))
      &&
      let candidates =
        Option.value ~default:[] (Relation.Row_tbl.find_opt index k)
      in
      List.exists
        (fun row ->
          Truth.is_true
            (eval_pred
               ({ fr_schema = schema; fr_row = row } :: outer_frames)
               sub.where))
        candidates
    end
  in
  let count_output (op : Operator.t) =
    {
      op with
      Operator.next =
        (fun () ->
          match op.Operator.next () with
          | Some r ->
            stats.Stats.rows_output <- stats.Stats.rows_output + 1;
            Some r
          | None -> None);
    }
  in
  let rec compile_node plan : Operator.t =
    match plan with
    | Relalg.Plan.Scan { table; corr } ->
      let schema, rows, order = scan_table table corr in
      Operator.of_rows ~order
        ~tick:(fun () -> stats.Stats.rows_scanned <- stats.Stats.rows_scanned + 1)
        schema rows
    | Relalg.Plan.Select (pred, (Relalg.Plan.Product _ as prod)) ->
      (match cfg.join_impl with
       | Nested_join ->
         (* ablation baseline: filter the block-nested product stream *)
         Stats.record_join stats ~strategy:"nested";
         let op = compile_node prod in
         let schema = op.Operator.schema in
         count_output
           (Operator.filter
              (fun row ->
                Truth.is_true
                  (eval_pred [ { fr_schema = schema; fr_row = row } ] pred))
              op)
       | Hash_join | Planned_join _ ->
         (* the streaming join tree: the "alternate join methods" that
            motivate unnesting in the paper's section 5.2 *)
         compile_join pred (Relalg.Plan.flatten_product prod))
    | Relalg.Plan.Select (pred, sub) ->
      let op = compile_node sub in
      let schema = op.Operator.schema in
      count_output
        (Operator.filter
           (fun row ->
             Truth.is_true
               (eval_pred [ { fr_schema = schema; fr_row = row } ] pred))
           op)
    | Relalg.Plan.Project (d, items, sub) ->
      let op = compile_node sub in
      let in_schema = op.Operator.schema in
      let cells =
        List.map
          (function
            | Relalg.Plan.Pcol a ->
              let i = Schema.Relschema.index_of in_schema a in
              fun (row : Relation.row) -> row.(i)
            | Relalg.Plan.Pconst v -> fun _ -> v
            | Relalg.Plan.Phost h ->
              (* resolved lazily so that compiling a pipeline (a pure
                 inspection step) never raises on an unbound host *)
              let v = lazy (lookup_host h) in
              fun _ -> Lazy.force v)
          items
      in
      let out_schema = Relalg.Plan.project_schema in_schema items in
      let out_order = project_order in_schema op.Operator.order items out_schema in
      let mapped =
        Operator.map ~order:out_order out_schema
          (fun row -> Array.of_list (List.map (fun f -> f row) cells))
          op
      in
      let deduped =
        match d with Sql.Ast.All -> mapped | Sql.Ast.Distinct -> distinct mapped
      in
      count_output deduped
    | Relalg.Plan.Product (a, b) ->
      Operator.product
        ~tick:(fun () -> stats.Stats.product_pairs <- stats.Stats.product_pairs + 1)
        (compile_node a) (compile_node b)
    | Relalg.Plan.Intersect (d, a, b) -> setop `Intersect d a b
    | Relalg.Plan.Except (d, a, b) -> setop `Except d a b
    | Relalg.Plan.Aggregate { group_by; output; input } ->
      aggregate group_by output input
    | Relalg.Plan.Sort (keys, sub) ->
      let op = compile_node sub in
      (* no [count_output]: the child already counted these rows, the sort
         only re-sequences them *)
      (match cfg.sort_impl with
       | Materialize_sort -> Operator.sort ~stats keys op
       | Elided_sort ->
         (* pass-through under an Order_plan certificate: the stream's
            verified order already implies the requested one. Rows were
            already counted by the child. *)
         stats.Stats.sort_elisions <- stats.Stats.sort_elisions + 1;
         op)

  and exec plan : Relation.t = Operator.to_relation (compile_node plan)

  (* Duplicate elimination over the projected stream. The 1994-era
     baseline sorts on every column, which makes the one-row window legal. *)
  and distinct (op : Operator.t) : Operator.t =
    match cfg.distinct_impl with
    | Sort_distinct ->
      let sorted =
        Operator.sort ~stats (Schema.Relschema.attrs op.Operator.schema) op
      in
      Option.get (Operator.sorted_unique ~stats sorted)
    | Stream_hash -> Operator.hash_unique ~stats op
    | Stream_sorted ->
      (match Operator.sorted_unique ~stats op with
       | Some sorted -> sorted
       | None ->
         stats.Stats.sorted_fallbacks <- stats.Stats.sorted_fallbacks + 1;
         Operator.hash_unique ~strategy:"sorted-unique->hash" ~stats op)
    | Stream_elided -> Operator.elided_unique ~stats op

  and aggregate group_by output input =
    let in_schema = (compile_node input).Operator.schema in
    let out_schema = Relalg.Plan.aggregate_schema in_schema output in
    Operator.of_lazy out_schema (fun () ->
        let r = exec input in
        let key_idx =
          List.map (fun a -> Schema.Relschema.index_of in_schema a) group_by
        in
        (* sort-based grouping: group keys use the null-comparison total
           order, so NULL keys fall into one group (SQL GROUP BY semantics) *)
        let compare_keys a b =
          let rec go = function
            | [] -> 0
            | i :: rest ->
              (match Value.compare_total a.(i) b.(i) with
               | 0 -> go rest
               | c -> c)
          in
          tick_compare ();
          go key_idx
        in
        let groups =
          match group_by with
          | [] -> [ r.Relation.rows ]  (* one global group, even when empty *)
          | _ ->
            stats.Stats.sorts <- stats.Stats.sorts + 1;
            stats.Stats.sorted_rows <-
              stats.Stats.sorted_rows + List.length r.Relation.rows;
            let sorted = List.sort compare_keys r.Relation.rows in
            let rec split = function
              | [] -> []
              | row :: rest ->
                let rec take acc = function
                  | row' :: rest' when compare_keys row row' = 0 ->
                    take (row' :: acc) rest'
                  | remaining -> (List.rev acc, remaining)
                in
                let group, remaining = take [ row ] rest in
                group :: split remaining
            in
            split sorted
        in
        let compute_agg fn operand rows =
          let operands =
            match operand with
            | None -> List.map (fun _ -> Value.Int 1) rows  (* star count *)
            | Some i ->
              List.filter
                (fun v -> not (Value.is_null v))
                (List.map (fun row -> row.(i)) rows)
          in
          match fn, operands with
          | Sql.Ast.Count, vs -> Value.Int (List.length vs)
          | (Sql.Ast.Sum | Sql.Ast.Min | Sql.Ast.Max | Sql.Ast.Avg), [] ->
            Value.Null
          | Sql.Ast.Sum, vs ->
            let all_int =
              List.for_all (function Value.Int _ -> true | _ -> false) vs
            in
            if all_int then
              Value.Int
                (List.fold_left
                   (fun acc v -> match v with Value.Int i -> acc + i | _ -> acc)
                   0 vs)
            else
              Value.Float
                (List.fold_left
                   (fun acc v ->
                     match v with
                     | Value.Int i -> acc +. float_of_int i
                     | Value.Float f -> acc +. f
                     | _ -> acc)
                   0.0 vs)
          | Sql.Ast.Min, v :: vs ->
            List.fold_left
              (fun m w -> if Value.compare_total w m < 0 then w else m)
              v vs
          | Sql.Ast.Max, v :: vs ->
            List.fold_left
              (fun m w -> if Value.compare_total w m > 0 then w else m)
              v vs
          | Sql.Ast.Avg, vs ->
            let total =
              List.fold_left
                (fun acc v ->
                  match v with
                  | Value.Int i -> acc +. float_of_int i
                  | Value.Float f -> acc +. f
                  | _ -> acc)
                0.0 vs
            in
            Value.Float (total /. float_of_int (List.length vs))
        in
        (* precompute operand/key positions per output column *)
        let cells =
          List.map
            (fun out ->
              match out with
              | Relalg.Plan.Out_key a ->
                let i = Schema.Relschema.index_of in_schema a in
                fun rows ->
                  (match rows with
                   | row :: _ -> row.(i)
                   | [] -> Value.Null)
              | Relalg.Plan.Out_agg (fn, operand) ->
                let idx =
                  Option.map
                    (fun a -> Schema.Relschema.index_of in_schema a)
                    operand
                in
                fun rows -> compute_agg fn idx rows)
            output
        in
        let rows =
          List.map
            (fun group -> Array.of_list (List.map (fun f -> f group) cells))
            groups
        in
        stats.Stats.rows_output <- stats.Stats.rows_output + List.length rows;
        rows)

  and compile_join pred leaves : Operator.t =
    (* Streaming join tree over the flattened product leaves: single-leaf
       conjuncts are pushed below the joins, cross-leaf equalities drive
       streaming hash joins — in FROM order under [Hash_join], or in the
       planner-chosen order with unique-build certificates under
       [Planned_join] (the engine trusts [Optimizer.Join_plan]'s
       certificate blindly; the analyzers live above the engine) — and
       whatever remains, EXISTS correlations included, runs as a residual
       filter over the joined stream. Output column order under a
       reordered plan differs from the FROM-order product, which is safe:
       parents resolve columns by qualified name, never by position. *)
    let rec contains_exists = function
      | Sql.Ast.Exists _ -> true
      | Sql.Ast.And (x, y) | Sql.Ast.Or (x, y) ->
        contains_exists x || contains_exists y
      | Sql.Ast.Not x -> contains_exists x
      | Sql.Ast.Ptrue | Sql.Ast.Pfalse | Sql.Ast.Cmp _ | Sql.Ast.Between _
      | Sql.Ast.In_list _ | Sql.Ast.Is_null _ | Sql.Ast.Is_not_null _ -> false
    in
    let rec cols_of p =
      let of_scalar = function Sql.Ast.Col c -> [ c ] | _ -> [] in
      match p with
      | Sql.Ast.Ptrue | Sql.Ast.Pfalse -> []
      | Sql.Ast.Cmp (_, x, y) -> of_scalar x @ of_scalar y
      | Sql.Ast.Between (x, y, z) -> of_scalar x @ of_scalar y @ of_scalar z
      | Sql.Ast.In_list (x, _) | Sql.Ast.Is_null x | Sql.Ast.Is_not_null x ->
        of_scalar x
      | Sql.Ast.And (x, y) | Sql.Ast.Or (x, y) -> cols_of x @ cols_of y
      | Sql.Ast.Not x -> cols_of x
      | Sql.Ast.Exists _ -> []
    in
    let safe_mem schema attr =
      match Schema.Relschema.find_index schema attr with
      | Some _ -> true
      | None -> false
      | exception Failure _ -> false
    in
    let evaluable schema c =
      (not (contains_exists c))
      && List.for_all (safe_mem schema) (cols_of c)
    in
    let remaining = ref (Sql.Ast.conjuncts pred) in
    let take f =
      let yes, no = List.partition f !remaining in
      remaining := no;
      yes
    in
    let filter_op op preds =
      match preds with
      | [] -> op
      | _ ->
        let p = Sql.Ast.conj preds in
        let schema = op.Operator.schema in
        Operator.filter
          (fun row ->
            Truth.is_true
              (eval_pred [ { fr_schema = schema; fr_row = row } ] p))
          op
    in
    (* push single-leaf conjuncts below the joins; FROM order keeps the
       attribution deterministic regardless of the join order chosen *)
    let ops =
      Array.of_list
        (List.map
           (fun leaf ->
             let op = compile_node leaf in
             filter_op op (take (evaluable op.Operator.schema)))
           leaves)
    in
    let n = Array.length ops in
    let from_order = List.init n Fun.id in
    let visit_order, unique_of, merge_of =
      match cfg.join_impl with
      | Nested_join | Hash_join -> (from_order, (fun _ -> false), fun _ -> false)
      | Planned_join { jo_first; jo_steps } ->
        let idxs = jo_first :: List.map (fun s -> s.js_leaf) jo_steps in
        (* a plan for a different leaf count/set cannot be trusted *)
        if List.sort compare idxs <> from_order then
          (from_order, (fun _ -> false), fun _ -> false)
        else
          ( idxs,
            (fun i ->
              List.exists
                (fun s -> s.js_leaf = i && s.js_unique_build)
                jo_steps),
            fun i ->
              List.exists (fun s -> s.js_leaf = i && s.js_merge) jo_steps )
    in
    let product_tick () =
      stats.Stats.product_pairs <- stats.Stats.product_pairs + 1
    in
    let join acc leaf_idx =
      let build = ops.(leaf_idx) in
      let as_equi c =
        match c with
        | Sql.Ast.Cmp (Sql.Ast.Eq, Sql.Ast.Col x, Sql.Ast.Col y) ->
          if
            safe_mem acc.Operator.schema x
            && safe_mem build.Operator.schema y
          then Some (x, y)
          else if
            safe_mem acc.Operator.schema y
            && safe_mem build.Operator.schema x
          then Some (y, x)
          else None
        | _ -> None
      in
      let equis =
        List.filter_map as_equi (take (fun c -> as_equi c <> None))
      in
      (* A merge join compares the key vector lexicographically, so the
         equi list must be arranged to follow both streams' verified order
         prefixes pairwise — (probe key i, build key i) at order position i
         on each side. Returns the arranged list, or None when no such
         arrangement exists (the planner's certificate is then dropped, a
         malformed plan never changes answers). *)
      let arrange_for_merge equis =
        let rec go acc_order build_order remaining arranged =
          match remaining with
          | [] -> Some (List.rev arranged)
          | _ ->
            (match acc_order, build_order with
             | pa :: ra, pb :: rb ->
               (match
                  List.find_opt
                    (fun (x, y) ->
                      Schema.Attr.equal x pa && Schema.Attr.equal y pb)
                    remaining
                with
                | Some e ->
                  go ra rb
                    (List.filter (fun e' -> e' != e) remaining)
                    (e :: arranged)
                | None -> None)
             | _ -> None)
        in
        go acc.Operator.order build.Operator.order equis []
      in
      let joined =
        match equis with
        | [] ->
          (* no usable equi-join condition: block nested-loop product *)
          Stats.record_join stats ~strategy:"product";
          Operator.product ~tick:product_tick acc build
        | _ ->
          let keys_of equis =
            ( List.map
                (fun (x, _) -> Schema.Relschema.index_of acc.Operator.schema x)
                equis,
              List.map
                (fun (_, y) -> Schema.Relschema.index_of build.Operator.schema y)
                equis )
          in
          (match
             if merge_of leaf_idx then arrange_for_merge equis else None
           with
           | Some arranged ->
             let probe_key, build_key = keys_of arranged in
             Stats.record_join stats ~strategy:"merge-join";
             Operator.merge_join ~tick:product_tick ~stats ~probe_key
               ~build_key acc build
           | None ->
             let probe_key, build_key = keys_of equis in
             let unique_build = unique_of leaf_idx in
             Stats.record_join stats
               ~strategy:
                 (if unique_build then "unique-hash-join" else "hash-join");
             Operator.hash_join ~tick:product_tick ~stats ~unique_build
               ~probe_key ~build_key acc build)
      in
      filter_op joined (take (evaluable joined.Operator.schema))
    in
    let result =
      match visit_order with
      | [] -> failwith "Exec.compile_join: empty product"
      | first :: rest -> List.fold_left join ops.(first) rest
    in
    count_output (filter_op result !remaining)

  and setop kind d a b =
    (* Set operations stream as one counted hash semi-join keyed on the
       whole row (see [Operator.semi_join]): INTERSECT keeps the left rows
       a right row cancels, EXCEPT the rest. DISTINCT dedups the left input
       first, so each surviving row meets the set test; ALL streams the
       left bag as is and gets min(j, k) / max(j - k, 0) copies. Set
       operations equate NULLs, so the keys use the null-comparison
       operator ([~null_equal]). Output order is the left input's. *)
    let left = compile_node a in
    let right = compile_node b in
    let schema = left.Operator.schema in
    let all_cols s = List.init (List.length (Schema.Relschema.columns s)) Fun.id in
    let checked = ref false in
    let check_compat () =
      if not !checked then begin
        checked := true;
        if not (Schema.Relschema.union_compatible schema right.Operator.schema)
        then failwith "Exec: set operation on non-union-compatible inputs"
      end
    in
    Stats.record_join stats
      ~strategy:
        (match kind with
         | `Intersect -> "semi-join"
         | `Except -> "anti-semi-join");
    let semi =
      Operator.semi_join
        ~anti:(kind = `Except)
        ~null_equal:true ~stats ~probe_key:(all_cols schema)
        ~build_key:(all_cols right.Operator.schema)
        (match d with
         | Sql.Ast.Distinct -> Operator.hash_unique ~stats left
         | Sql.Ast.All -> left)
        right
    in
    count_output
      { semi with
        Operator.next =
          (fun () ->
            check_compat ();
            semi.Operator.next ()) }
  in
  compile_node plan

let run ?config db ~hosts plan = Operator.to_relation (compile ?config db ~hosts plan)

let run_query ?config db ~hosts q =
  let plan = Relalg.Plan.of_query (Database.catalog db) q in
  run ?config db ~hosts plan

let run_sql ?config db ~hosts s = run_query ?config db ~hosts (Sql.Parser.parse_query s)

let distinct_stream db q =
  match
    (* the DISTINCT happens below any ORDER BY; probe the stream feeding it *)
    match Relalg.Plan.of_query (Database.catalog db) q with
    | Relalg.Plan.Sort (_, p) -> p
    | p -> p
  with
  | Relalg.Plan.Project (Sql.Ast.Distinct, items, sub) ->
    (* compile (never execute) the stream feeding the DISTINCT: project
       with ALL so the probe sees the order arriving at the dedup point *)
    let op = compile db ~hosts:[] (Relalg.Plan.Project (Sql.Ast.All, items, sub)) in
    Some (op.Operator.schema, op.Operator.order)
  | _ -> None
  | exception Failure _ -> None
  | exception Not_found -> None

let sorted_covers db q =
  match distinct_stream db q with
  | Some (schema, order) -> Operator.order_covers schema order
  | None -> false

(* Probe for the order planner: compile (never execute) the stream feeding
   a query's ORDER BY and report the requested sort keys plus the stream's
   verified order provenance at that point, under [config]'s strategies. *)
let order_stream ?config db q =
  match Relalg.Plan.of_query (Database.catalog db) q with
  | Relalg.Plan.Sort (keys, sub) ->
    let op = compile ?config db ~hosts:[] sub in
    Some (keys, op.Operator.schema, op.Operator.order)
  | _ -> None
  | exception Failure _ -> None
  | exception Not_found -> None
