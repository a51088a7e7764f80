(* Query templates of the two query workloads, each with a reference
   answer computed in plain OCaml over the generated rows — never through
   the engine — so a wrong plan shows as a wrong checksum. *)

module Value = Sqlval.Value
module Checksum = Perfbench_core.Checksum

type template = {
  name : string;
  sql : string;
  hosts : (string * Value.t) list;
  db : Engine.Database.t;
  sort_col : int option;
      (** output column an ORDER BY sorts on: the drain checks the rows
          arrive nondecreasing on it *)
  expected : Checksum.t;
}

let rows db table = (Engine.Database.table db table).Engine.Relation.rows
let int = function Value.Int i -> i | _ -> invalid_arg "int"

(* Distinct rows of a row list, in a checksum. *)
let distinct rows =
  let seen = Hashtbl.create 1024 in
  List.fold_left
    (fun acc r ->
      if Hashtbl.mem seen r then acc
      else begin
        Hashtbl.add seen r ();
        Checksum.add acc r
      end)
    Checksum.empty rows

let bag rows = Checksum.of_rows rows

(* ---- scale_1m ---- *)

let scale_rows = 1_000_000
let bulk_distinct_fraction = 0.01

type scale_db = {
  bulk : Engine.Database.t;
  star : Engine.Database.t;
  pair : Engine.Database.t;
}

(* Three tables of 10^6 rows: BULK in key order with 1% distinct GRP
   (10^4 groups), STAR with 10^6 fact rows, PAIR with 10^6 rows per
   side. *)
let scale_setup ~seed =
  let bulk =
    Workload.Datagen.bulk_db ~seed ~distinct_fraction:bulk_distinct_fraction
      ~order:Workload.Datagen.Key_order ~rows:scale_rows ()
  in
  let star = Workload.Datagen.star_db ~seed ~rows:scale_rows () in
  let pair = Workload.Datagen.pair_db ~seed ~rows:scale_rows () in
  { bulk; star; pair }

let scale_templates d =
  let bulk = rows d.bulk "BULK" in
  (* folds straight into checksums, and what must be held goes in flat
     arrays: at 10^6 rows the references must not hold a second copy of
     the table, nor leave millions of small blocks behind in the heap,
     which OCaml keeps once grown and which would then hide the engine's
     own memory in peak_rss_mb *)
  let bag_of f rows =
    List.fold_left
      (fun acc r -> match f r with Some o -> Checksum.add acc o | None -> acc)
      Checksum.empty rows
  in
  let distinct_ints col =
    let a = Array.make (List.length bulk) 0 in
    List.iteri (fun i r -> a.(i) <- int r.(col)) bulk;
    Array.sort Int.compare a;
    let acc = ref Checksum.empty in
    Array.iteri
      (fun i x -> if i = 0 || a.(i - 1) <> x then acc := Checksum.add !acc [| Value.Int x |])
      a;
    !acc
  in
  let star_expected () =
    let dim t =
      let a = Hashtbl.create 4096 in
      List.iter (fun r -> Hashtbl.replace a (int r.(0)) r.(1)) (rows d.star t);
      a
    in
    let d1 = dim "DIM1" and d2 = dim "DIM2" in
    bag_of
      (fun f ->
        match (Hashtbl.find_opt d1 (int f.(1)), Hashtbl.find_opt d2 (int f.(2))) with
        | Some a1, Some a2 -> Some [| f.(0); a1; a2 |]
        | _ -> None)
      (rows d.star "FACT")
  in
  let pair_expected () =
    (* RHS positions sorted by key; each LHS row binary-searches its run
       of equal keys *)
    let rhs = Array.of_list (rows d.pair "RHS") in
    let keys = Array.map (fun r -> int r.(0)) rhs in
    let n = Array.length rhs in
    let by_key = Array.init n Fun.id in
    Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) by_key;
    let rec first k lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if keys.(by_key.(mid)) < k then first k (mid + 1) hi else first k lo mid
    in
    List.fold_left
      (fun acc l ->
        let k = int l.(0) in
        let rec matches p acc =
          if p < n && keys.(by_key.(p)) = k then
            matches (p + 1) (Checksum.add acc [| l.(0); l.(1); rhs.(by_key.(p)).(1) |])
          else acc
        in
        matches (first k 0 n) acc)
      Checksum.empty (rows d.pair "LHS")
  in
  let t name sql db ?sort_col expected =
    { name; sql; hosts = []; db; sort_col; expected = expected () }
  in
  let k_grp r = Some [| r.(0); r.(1) |] in
  [ t "distinct_key" Workload.Datagen.key_query d.bulk (fun () -> distinct_ints 0);
    t "distinct_grp" Workload.Datagen.group_query d.bulk (fun () -> distinct_ints 1);
    t "order_key" Workload.Datagen.order_key_query d.bulk ~sort_col:0 (fun () ->
        bag_of k_grp bulk);
    t "order_grp" Workload.Datagen.order_group_query d.bulk ~sort_col:1 (fun () ->
        bag_of k_grp bulk);
    t "filter_proj" "SELECT B.K FROM BULK B WHERE B.VAL >= 0" d.bulk (fun () ->
        bag_of
          (fun r ->
            match r.(2) with Value.Int x when x >= 0 -> Some [| r.(0) |] | _ -> None)
          bulk);
    t "star_join" Workload.Datagen.star_query d.star star_expected;
    t "pair_merge" Workload.Datagen.pair_query d.pair ~sort_col:0 pair_expected ]

(* ---- paper_mix ---- *)

(* Sized so one pass over the templates stays well under a second on a
   2-core host: the naive correlated EXISTS of workload.sql grows with
   the square of the supplier count and dominates the pass. *)
let paper_suppliers = 400
let paper_parts_per_supplier = 10

let paper_setup ~seed =
  Workload.Generator.supplier_db ~seed ~suppliers:paper_suppliers
    ~parts_per_supplier:paper_parts_per_supplier ()

let example7_hosts =
  [ ("SUPPLIER_NAME", Value.String "SUPPLIER-3"); ("PART_NO", Value.Int 2) ]

let paper_templates db =
  let sup = rows db "SUPPLIER" and parts = rows db "PARTS" and agents = rows db "AGENTS" in
  let str s = Value.String s in
  let is c v = Value.equal v (str c) in
  (* SUPPLIER (SNO, SNAME, SCITY, BUDGET, STATUS)
     PARTS    (SNO, PNO, PNAME, OEM_PNO, COLOR)
     AGENTS   (SNO, ANO, ANAME, ACITY) *)
  let supplier_by_sno = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace supplier_by_sno s.(0) s) sup;
  let red_join project =
    List.filter_map
      (fun p ->
        if is "RED" p.(4) then
          Option.map (fun s -> project s p) (Hashtbl.find_opt supplier_by_sno p.(0))
        else None)
      parts
  in
  let with_part pred =
    let snos = Hashtbl.create 1024 in
    List.iter (fun p -> if pred p then Hashtbl.replace snos p.(0) ()) parts;
    fun s -> Hashtbl.mem snos s.(0)
  in
  let example1 () = distinct (red_join (fun s p -> [| s.(0); p.(1); p.(2) |])) in
  let t name ?(hosts = []) sql expected =
    { name; sql; hosts; db; sort_col = None; expected = expected () }
  in
  [ (* examples/workload.sql, one template per statement; the first is
       the paper's Example 1 *)
    t "w1_red_parts"
      "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'RED'"
      example1;
    t "w2_red_parts_renamed"
      "SELECT DISTINCT X.SNO, Y.PNO, Y.PNAME FROM SUPPLIER X, PARTS Y WHERE \
       X.SNO = Y.SNO AND Y.COLOR = 'RED'"
      example1;
    t "w3_chicago"
      "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = \
       'Chicago'"
      (fun () ->
        distinct
          (List.filter_map
             (fun s -> if is "Chicago" s.(2) then Some [| s.(0); s.(1) |] else None)
             sup));
    t "w4_blue_all" "SELECT ALL P.SNO, P.PNO FROM PARTS P WHERE P.COLOR = 'BLUE'"
      (fun () ->
        bag
          (List.filter_map
             (fun p -> if is "BLUE" p.(4) then Some [| p.(0); p.(1) |] else None)
             parts));
    t "w5_toronto_agents"
      "SELECT DISTINCT A.SNO, A.ANO FROM AGENTS A WHERE A.ACITY = 'Toronto'"
      (fun () ->
        distinct
          (List.filter_map
             (fun a -> if is "Toronto" a.(3) then Some [| a.(0); a.(1) |] else None)
             agents));
    t "w6_exists_red"
      "SELECT S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT P.PNO FROM PARTS P \
       WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
      (fun () ->
        let red = with_part (fun p -> is "RED" p.(4)) in
        bag (List.filter_map (fun s -> if red s then Some [| s.(1) |] else None) sup));
    t "w7_intersect"
      "SELECT DISTINCT S.SNO FROM SUPPLIER S INTERSECT SELECT DISTINCT P.SNO \
       FROM PARTS P"
      (fun () ->
        let any = with_part (fun _ -> true) in
        distinct (List.filter_map (fun s -> if any s then Some [| s.(0) |] else None) sup));
    t "w8_cities" "SELECT DISTINCT S.SCITY FROM SUPPLIER S" (fun () ->
        distinct (List.map (fun s -> [| s.(2) |]) sup));
    (* the paper's examples; Example 1 is w1 above, so it runs once. Its
       second copy put the 14-template mix's median on the boundary
       between two latency bands, and p50 jumped between them from run
       to run *)
    t "example2"
      "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
       S.SNO = P.SNO AND P.COLOR = 'RED'"
      (fun () -> distinct (red_join (fun s p -> [| s.(1); p.(1); p.(2) |])));
    t "example7" ~hosts:example7_hosts
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = \
       :SUPPLIER_NAME AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO \
       AND P.PNO = :PART_NO)"
      (fun () ->
        let name = List.assoc "SUPPLIER_NAME" example7_hosts
        and pno = List.assoc "PART_NO" example7_hosts in
        let has = with_part (fun p -> Value.equal p.(1) pno) in
        bag
          (List.filter_map
             (fun s ->
               if Value.equal s.(1) name && has s then Some [| s.(0); s.(1) |]
               else None)
             sup));
    t "example8"
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM \
       PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')"
      (fun () ->
        let red = with_part (fun p -> is "RED" p.(4)) in
        bag (List.filter_map (fun s -> if red s then Some [| s.(0); s.(1) |] else None) sup));
    t "example9"
      "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT \
       SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = \
       'Hull'"
      (fun () ->
        let ah = Hashtbl.create 1024 in
        List.iter
          (fun a -> if is "Ottawa" a.(3) || is "Hull" a.(3) then Hashtbl.replace ah a.(0) ())
          agents;
        distinct
          (List.filter_map
             (fun s ->
               if is "Toronto" s.(2) && Hashtbl.mem ah s.(0) then Some [| s.(0) |]
               else None)
             sup));
    t "group_by_key"
      "SELECT P.SNO, P.PNO, COUNT(*), MAX(P.OEM_PNO) FROM PARTS P GROUP BY \
       P.SNO, P.PNO"
      (fun () ->
        bag (List.map (fun p -> [| p.(0); p.(1); Value.Int 1; p.(3) |]) parts)) ]
