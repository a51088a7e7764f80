(* The serve_mix request stream and each request's hand-written expected
   verdict (the prefix its reply body must start with). *)

type request = { sql : string; expected : string }

let both b = Printf.sprintf "unique(alg1)=%b unique(fd)=%b" b b
let not_a_block = "unique=n/a"

(* examples/workload.sql, one line per statement *)
let workload_sql =
  [ { sql =
        "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE \
         S.SNO = P.SNO AND P.COLOR = 'RED'";
      expected = both true };
    { sql =
        "SELECT DISTINCT X.SNO, Y.PNO, Y.PNAME FROM SUPPLIER X, PARTS Y WHERE \
         X.SNO = Y.SNO AND Y.COLOR = 'RED'";
      expected = both true };
    { sql = "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Chicago'";
      expected = both true };
    { sql = "SELECT ALL P.SNO, P.PNO FROM PARTS P WHERE P.COLOR = 'BLUE'";
      expected = both true };
    { sql = "SELECT DISTINCT A.SNO, A.ANO FROM AGENTS A WHERE A.ACITY = 'Toronto'";
      expected = both true };
    { sql =
        "SELECT S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT P.PNO FROM PARTS P \
         WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";
      expected = both false };
    { sql =
        "SELECT DISTINCT S.SNO FROM SUPPLIER S INTERSECT SELECT DISTINCT P.SNO \
         FROM PARTS P";
      expected = not_a_block };
    { sql = "SELECT DISTINCT S.SCITY FROM SUPPLIER S"; expected = both false } ]

(* The SERVE experiment's four templates, keyed by a constant: SNO is
   SUPPLIER's key; PNO alone is no key of PARTS; (SNO, PNO) is; a
   grouped query is no plain SELECT block. *)
let templates =
  [ (fun i ->
      { sql = Printf.sprintf "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNAME = 'v%d'" i;
        expected = both true });
    (fun i ->
      { sql =
          Printf.sprintf
            "SELECT DISTINCT P.PNO, P.COLOR FROM PARTS P WHERE P.PNAME = 'p%d'" i;
        expected = both false });
    (fun i ->
      { sql =
          Printf.sprintf
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = \
             P.SNO AND P.PNAME = 'q%d'"
            i;
        expected = both true });
    (fun i ->
      { sql =
          Printf.sprintf
            "SELECT S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'c%d' GROUP BY S.SNAME" i;
        expected = not_a_block }) ]

let malformed =
  { sql = "SELECT FROM WHERE";
    expected = "parse error: expected scalar expression but found FROM" }

(* Constants per template in the base set: 8 + 4 * 100 requests leave
   about 620 verdict entries, inside the server's default 1024. *)
let base_constants = 100

let base_set =
  workload_sql
  @ List.concat_map
      (fun i -> List.map (fun t -> t i) templates)
      (List.init base_constants Fun.id)

(* Share of requests with a never-repeated constant: they always miss
   the verdict cache and, once it is full, force evictions. *)
let fresh_share = 0.1
let malformed_every = 40

type gen = { rng : Random.State.t; base : request array; mutable i : int; mutable fresh : int }

let generator ~seed =
  { rng = Random.State.make [| seed; 0x73657276 |]; base = Array.of_list base_set;
    i = 0; fresh = 1_000_000 }

let next g =
  g.i <- g.i + 1;
  if g.i mod malformed_every = 0 then malformed
  else if Random.State.float g.rng 1.0 < fresh_share then begin
    g.fresh <- g.fresh + 1;
    (List.nth templates (Random.State.int g.rng (List.length templates))) g.fresh
  end
  else g.base.(Random.State.int g.rng (Array.length g.base))

(* The warm-up: the base set once, in a seeded order. *)
let warmup ~seed =
  let a = Array.of_list base_set in
  let rng = Random.State.make [| seed; 0x7761726d |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
