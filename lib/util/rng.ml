type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: fast, well distributed, and trivially portable. *)
let int64 t =
  let open Int64 in
  t.state <- add t.state 0x9e3779b97f4a7c15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let split t = { state = int64 t }

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.rem (Int64.logand (int64 t) Int64.max_int) (Int64.of_int n))

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

let float t x =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (int64 t) 1L = 1L
let chance t p = float t 1.0 < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose";
  a.(int t (Array.length a))
