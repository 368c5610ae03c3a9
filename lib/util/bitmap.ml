type t = { bits : int; data : Bytes.t }

let create bits =
  if bits < 0 then invalid_arg "Bitmap.create";
  { bits; data = Bytes.make ((bits + 7) / 8) '\000' }

let length t = t.bits

let check t i =
  if i < 0 || i >= t.bits then
    invalid_arg (Printf.sprintf "Bitmap: index %d out of [0,%d)" i t.bits)

let get t i =
  check t i;
  Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.data b
    (Char.chr (Char.code (Bytes.get t.data b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.data b
    (Char.chr (Char.code (Bytes.get t.data b) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i v = if v then set t i else clear t i

(* Set bits of a 64-bit word; inlined, so the word is never boxed. *)
let[@inline] popcount64 w =
  let open Int64 in
  let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let m2 = 0x3333333333333333L in
  let w = add (logand w m2) (logand (shift_right_logical w 2) m2) in
  let w = logand (add w (shift_right_logical w 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

(* Eight bytes of the packed map as one word. A word is only counted or
   compared with all zeros and all ones, so its byte order does not
   matter. *)
let[@inline] word t b = Bytes.get_int64_ne t.data b

let count t =
  let n = Bytes.length t.data in
  let total = ref 0 in
  let b = ref 0 in
  while !b + 8 <= n do
    total := !total + popcount64 (word t !b);
    b := !b + 8
  done;
  for b = !b to n - 1 do
    total := !total + popcount64 (Int64.of_int (Char.code (Bytes.get t.data b)))
  done;
  (* Bits past [t.bits] in the final byte are never set. *)
  !total

(* [run_mask ~pos ~stop b] selects the bits of byte [b] inside
   [pos, stop); every byte strictly between the run's first and last is
   0xff. *)
let run_mask ~pos ~stop b =
  let lo = if b = pos lsr 3 then pos land 7 else 0 in
  let hi = if b = (stop - 1) lsr 3 then (stop - 1) land 7 else 7 in
  (0xff lsl lo) land (0xff lsr (7 - hi))

(* Byte [b] with the bits under mask [m] set to [v]. *)
let assign_masked t b m v =
  let byte = Char.code (Bytes.get t.data b) in
  Bytes.set t.data b (Char.chr (if v then byte lor m else byte land lnot m land 0xff))

(* The whole run is validated before any byte changes, so an
   out-of-range run leaves the map as it was. The two edge bytes change
   under their masks and the bytes between are filled. *)
let assign_run name t ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > t.bits then
    invalid_arg (Printf.sprintf "Bitmap.%s: run [%d,+%d) out of [0,%d)" name pos len t.bits);
  let stop = pos + len in
  if len > 0 then begin
    let first = pos lsr 3 and last = (stop - 1) lsr 3 in
    assign_masked t first (run_mask ~pos ~stop first) v;
    if last > first then begin
      Bytes.fill t.data (first + 1) (last - first - 1) (if v then '\255' else '\000');
      assign_masked t last (run_mask ~pos ~stop last) v
    end
  end

let set_run t ~pos ~len = assign_run "set_run" t ~pos ~len true
let clear_run t ~pos ~len = assign_run "clear_run" t ~pos ~len false

(* Whether the bits of byte [b] under mask [m] all equal [v]. *)
let masked_uniform t b m v =
  Char.code (Bytes.get t.data b) land m = if v then m else 0

(* Whether bytes [b, last) all have every bit equal to [v], a word at a
   time while a whole word fits. *)
let rec bytes_uniform t b last v =
  if b + 8 <= last then
    Int64.equal (word t b) (if v then -1L else 0L) && bytes_uniform t (b + 8) last v
  else b >= last || (masked_uniform t b 0xff v && bytes_uniform t (b + 1) last v)

let uniform_run t ~pos ~len v =
  let stop = pos + len in
  pos >= 0 && stop <= t.bits
  && (len <= 0
     ||
     let first = pos lsr 3 and last = (stop - 1) lsr 3 in
     masked_uniform t first (run_mask ~pos ~stop first) v
     && (first = last
        || bytes_uniform t (first + 1) last v
           && masked_uniform t last (run_mask ~pos ~stop last) v))

let all_set_in_run t ~pos ~len = uniform_run t ~pos ~len true
let all_clear_in_run t ~pos ~len = uniform_run t ~pos ~len false

(* Tables over the 256 byte values that cross a mixed byte in one step.
   [ones_up] counts a byte's set bits from bit 0 up to the first clear
   one, [ones_down] from bit 7 down. For a run of [n <= 8] bits,
   [first_run] at [(n - 1) * 256 + byte] is the lowest bit at which [n]
   set bits start inside the byte, [last_run] the highest; both are 8
   when there is none. Only the searches read them, so they are built
   on the first search, as a program that never searches need not pay
   for them at start-up. *)
type tables = {
  ones_up : string;
  ones_down : string;
  first_run : string;
  last_run : string;
}

let tables =
  lazy
    (let table n f = String.init n (fun i -> Char.chr (f i)) in
     let ones_from next byte =
       let rec go k = if k < 8 && byte land next k <> 0 then go (k + 1) else k in
       go 0
     in
     let runs_inside i =
       let n = (i lsr 8) + 1 and byte = i land 0xff in
       let m = (1 lsl n) - 1 in
       List.filter (fun p -> byte land (m lsl p) = m lsl p) (List.init (9 - n) Fun.id)
     in
     {
       ones_up = table 256 (ones_from (fun k -> 1 lsl k));
       ones_down = table 256 (ones_from (fun k -> 0x80 lsr k));
       first_run = table 2048 (fun i -> match runs_inside i with p :: _ -> p | [] -> 8);
       last_run =
         table 2048 (fun i -> match List.rev (runs_inside i) with p :: _ -> p | [] -> 8);
     })

let lookup table i = Char.code (String.unsafe_get table i)

(* Both searches look for [len] set bits inside [lo, hi), with
   [0 <= lo < hi <= length] and [len >= 1]. A byte is read under the
   mask of [lo, hi), so the run can neither start below [lo] nor end
   at or past [hi]. A 64-bit word inside [lo, hi) is taken in one step
   when it is all zero, or all ones and too short to complete the run;
   every other byte in one step through the tables: a run carried in
   from the previous byte completes in this one, else a run of [len <=
   8] lies inside it, else the run carried on is this byte's edge of
   ones. [tb] is the forced [tables]. Every byte read lies inside the
   map, so bytes are read unchecked. *)
let masked_byte t ~lo ~hi b =
  let v = Char.code (Bytes.unsafe_get t.data b) in
  if b = lo lsr 3 || b = (hi - 1) lsr 3 then v land run_mask ~pos:lo ~stop:hi b else v

(* [run] counts the set bits ending just below byte [b]. *)
let rec search_up tb t ~lo ~hi ~len b run =
  if b > (hi - 1) lsr 3 then None
  else if b land 7 = 0 && b lsl 3 >= lo && (b + 8) lsl 3 <= hi then
    let w = word t b in
    if Int64.equal w 0L then search_up tb t ~lo ~hi ~len (b + 8) 0
    else if Int64.equal w (-1L) && run + 64 < len then
      search_up tb t ~lo ~hi ~len (b + 8) (run + 64)
    else step_up tb t ~lo ~hi ~len b run
  else step_up tb t ~lo ~hi ~len b run

and step_up tb t ~lo ~hi ~len b run =
  let v = masked_byte t ~lo ~hi b in
  if run + lookup tb.ones_up v >= len then Some ((b lsl 3) - run)
  else
    let p = if len <= 8 then lookup tb.first_run (((len - 1) lsl 8) lor v) else 8 in
    if p < 8 then Some ((b lsl 3) + p)
    else
      let carry = if v = 0xff then run + 8 else lookup tb.ones_down v in
      search_up tb t ~lo ~hi ~len (b + 1) carry

(* [run] counts the set bits starting just above byte [b]. *)
let rec search_down tb t ~lo ~hi ~len b run =
  if b < lo lsr 3 then None
  else if b land 7 = 7 && (b - 7) lsl 3 >= lo && (b + 1) lsl 3 <= hi then
    let w = word t (b - 7) in
    if Int64.equal w 0L then search_down tb t ~lo ~hi ~len (b - 8) 0
    else if Int64.equal w (-1L) && run + 64 < len then
      search_down tb t ~lo ~hi ~len (b - 8) (run + 64)
    else step_down tb t ~lo ~hi ~len b run
  else step_down tb t ~lo ~hi ~len b run

and step_down tb t ~lo ~hi ~len b run =
  let v = masked_byte t ~lo ~hi b in
  if run + lookup tb.ones_down v >= len then Some ((b lsl 3) + 8 + run - len)
  else
    let p = if len <= 8 then lookup tb.last_run (((len - 1) lsl 8) lor v) else 8 in
    if p < 8 then Some ((b lsl 3) + p)
    else
      let carry = if v = 0xff then run + 8 else lookup tb.ones_up v in
      search_down tb t ~lo ~hi ~len (b - 1) carry

let find_run_set t ~from ~upto ~len =
  if len <= 0 then invalid_arg "Bitmap.find_run_set";
  let upto = min upto t.bits in
  if from < 0 || from >= upto then None
  else search_up (Lazy.force tables) t ~lo:from ~hi:upto ~len (from lsr 3) 0

let find_run_set_down t ~from ~downto_ ~len =
  if len <= 0 then invalid_arg "Bitmap.find_run_set_down";
  let from = min from (t.bits - 1) and downto_ = max downto_ 0 in
  if from < downto_ then None
  else search_down (Lazy.force tables) t ~lo:downto_ ~hi:(from + 1) ~len (from lsr 3) 0

let equal a b = a.bits = b.bits && Bytes.equal a.data b.data
let to_bytes t = Bytes.copy t.data

let blit_to_bytes t ~off dst ~pos ~len =
  if
    off < 0 || len < 0 || pos < 0
    || off + len > Bytes.length t.data
    || pos + len > Bytes.length dst
  then invalid_arg "Bitmap.blit_to_bytes";
  Bytes.blit t.data off dst pos len

let overwrite_bytes t ~off src =
  if off < 0 || off + Bytes.length src > Bytes.length t.data then
    invalid_arg "Bitmap.overwrite_bytes";
  Bytes.blit src 0 t.data off (Bytes.length src);
  (* re-mask stray bits beyond [bits] *)
  if t.bits land 7 <> 0 && Bytes.length t.data > 0 then begin
    let last = Bytes.length t.data - 1 in
    let mask = (1 lsl (t.bits land 7)) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land mask))
  end

let of_bytes ~bits b =
  if Bytes.length b < (bits + 7) / 8 then invalid_arg "Bitmap.of_bytes";
  let t = { bits; data = Bytes.sub b 0 ((bits + 7) / 8) } in
  (* Clear any stray bits beyond [bits] so [count] and [equal] are exact. *)
  if bits land 7 <> 0 then begin
    let last = Bytes.length t.data - 1 in
    let mask = (1 lsl (bits land 7)) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land mask))
  end;
  t
