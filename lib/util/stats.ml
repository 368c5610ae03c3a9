type t = {
  mutable values : float list;
  mutable n : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
  mutable sorted : float array option; (* cache, invalidated by add *)
}

let create () =
  { values = []; n = 0; total = 0.0; min = infinity; max = neg_infinity; sorted = None }

let add t v =
  t.values <- v :: t.values;
  t.n <- t.n + 1;
  t.total <- t.total +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  t.sorted <- None

let n t = t.n
let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
let min t = t.min
let max t = t.max
let total t = t.total

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.values in
    Array.sort compare a;
    t.sorted <- Some a;
    a

let recent t k =
  (* values is newest-first, so the first [k] entries are the most
     recent additions (still newest-first). *)
  let rec take k = function
    | [] -> []
    | _ when k <= 0 -> []
    | v :: rest -> v :: take (k - 1) rest
  in
  take k t.values

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let a = sorted t in
  (* Nearest-rank; p = 0.0 is defined as the minimum (rank 1). *)
  let idx = int_of_float (ceil (p *. float_of_int t.n)) - 1 in
  a.(Stdlib.max 0 (Stdlib.min (t.n - 1) idx))
