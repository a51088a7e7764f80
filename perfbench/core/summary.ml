let min_beyond = 10

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* rank of the nearest-rank p-quantile among n samples, when at least
   [min_beyond] samples rank above it *)
let rank n p =
  if not (p > 0. && p < 1.) then invalid_arg "Summary.percentile";
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || n - k < min_beyond then None else Some (max 1 k)

let percentile samples p =
  Option.map (fun k -> (sorted samples).(k - 1)) (rank (Array.length samples) p)

let middle samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Summary.middle";
  let a = sorted samples in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let windowed ~unit samples p =
  if unit < 1 || not (p > 0. && p < 1.) then invalid_arg "Summary.windowed";
  let n = Array.length samples in
  let rec width w = if w > n || rank w p <> None then w else width (w + unit) in
  let w = width unit in
  if w > n then None
  else begin
    let count = n / w in
    let window i = Array.sub samples (i * w) (if i = count - 1 then n - (i * w) else w) in
    let sum = ref 0. in
    for i = 0 to count - 1 do
      sum := !sum +. Option.get (percentile (window i) p)
    done;
    Some (!sum /. float_of_int count)
  end
