type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let advance t us =
  if us < 0 then invalid_arg "Simclock.advance";
  t.now <- t.now + us

let advance_to t deadline = if deadline > t.now then t.now <- deadline
let ms_of_us us = float_of_int us /. 1000.0
let s_of_us us = float_of_int us /. 1_000_000.0
