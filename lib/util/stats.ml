type t = {
  mutable values : float array; (* samples in arrival order; the first [n] are set *)
  mutable n : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
  mutable sorted : float array option; (* cache, invalidated by add *)
}

let create () =
  { values = [||]; n = 0; total = 0.0; min = infinity; max = neg_infinity; sorted = None }

let add t v =
  if t.n = Array.length t.values then begin
    let grown = Array.make (Stdlib.max 16 (2 * t.n)) 0.0 in
    Array.blit t.values 0 grown 0 t.n;
    t.values <- grown
  end;
  t.values.(t.n) <- v;
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
    let a = Array.sub t.values 0 t.n in
    (* [Float.compare] orders like polymorphic [compare] (nan first)
       without its generic dispatch per comparison. *)
    Array.stable_sort Float.compare a;
    t.sorted <- Some a;
    a

let recent t k = List.init (Stdlib.max 0 (Stdlib.min k t.n)) (fun i -> t.values.(t.n - 1 - i))

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let a = sorted t in
  (* Nearest-rank; p = 0.0 is defined as the minimum (rank 1). *)
  let idx = int_of_float (ceil (p *. float_of_int t.n)) - 1 in
  a.(Stdlib.max 0 (Stdlib.min (t.n - 1) idx))
