module Value = Sqlval.Value

type t = { rows : int; sum : int }

let empty = { rows = 0; sum = 0 }

(* splitmix64 finalizer, truncated to OCaml's 63-bit ints *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x3f58476d1ce4e5b9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let hash_value = function
  | Value.Null -> mix 0x6e756c6c
  | Value.Int i -> mix (i + 1)
  | Value.Float f -> mix (Int64.to_int (Int64.bits_of_float f) lxor 0x666c74)
  | Value.String s -> mix (Hashtbl.hash s lxor 0x737472)
  | Value.Bool b -> mix (if b then 0x74 else 0x66)

let hash_row row =
  (* a loop, not Array.iteri: no closure, so drain loops stay
     allocation-free *)
  let h = ref (Array.length row) in
  for i = 0 to Array.length row - 1 do
    h := mix (!h + (i * 0x9e3779b9) + hash_value row.(i))
  done;
  !h

let add t row = { rows = t.rows + 1; sum = t.sum + hash_row row }
let of_rows rows = List.fold_left add empty rows

type acc = { mutable n : int; mutable s : int }

let acc () = { n = 0; s = 0 }

let feed a row =
  a.n <- a.n + 1;
  a.s <- a.s + hash_row row

let result a = { rows = a.n; sum = a.s }
let equal (a : t) b = a.rows = b.rows && a.sum = b.sum
let to_string t = Printf.sprintf "%d rows, sum %x" t.rows t.sum
