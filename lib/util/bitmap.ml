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

let popcount_byte =
  lazy
    (Array.init 256 (fun n ->
         let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
         go n 0))

let count t =
  let pc = Lazy.force popcount_byte in
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + pc.(Char.code c)) t.data;
  (* Bits past [t.bits] in the final byte are never set. *)
  !total

(* Runs are applied a byte at a time. [run_mask ~pos ~stop b] selects the
   bits of byte [b] inside [pos, stop); every byte strictly between the
   run's first and last is 0xff. *)
let run_mask ~pos ~stop b =
  let lo = if b = pos lsr 3 then pos land 7 else 0 in
  let hi = if b = (stop - 1) lsr 3 then (stop - 1) land 7 else 7 in
  (0xff lsl lo) land (0xff lsr (7 - hi))

(* The whole run is validated before any byte changes, so an
   out-of-range run leaves the map as it was. *)
let assign_run name t ~pos ~len v =
  if pos < 0 || len < 0 || pos + len > t.bits then
    invalid_arg (Printf.sprintf "Bitmap.%s: run [%d,+%d) out of [0,%d)" name pos len t.bits);
  let stop = pos + len in
  if len > 0 then
    for b = pos lsr 3 to (stop - 1) lsr 3 do
      let byte = Char.code (Bytes.get t.data b) and m = run_mask ~pos ~stop b in
      Bytes.set t.data b (Char.chr (if v then byte lor m else byte land lnot m land 0xff))
    done

let set_run t ~pos ~len = assign_run "set_run" t ~pos ~len true
let clear_run t ~pos ~len = assign_run "clear_run" t ~pos ~len false

let all_set_in_run t ~pos ~len =
  let stop = pos + len in
  let rec go b =
    b > (stop - 1) lsr 3
    ||
    let m = run_mask ~pos ~stop b in
    Char.code (Bytes.get t.data b) land m = m && go (b + 1)
  in
  pos >= 0 && stop <= t.bits && (len <= 0 || go (pos lsr 3))

(* The run searches scan bit by bit, but at a byte boundary they take a
   whole byte in one step: a 0x00 byte breaks the run, and a 0xff byte
   extends it by eight when that cannot complete it (the bit steps then
   find exactly where it completes). A byte that straddles the search
   bound is stepped over too: it can neither complete a run nor, once
   the bound is passed, start one. Every index read is inside the map,
   so bytes are read unchecked. *)
let find_run_set t ~from ~upto ~len =
  if len <= 0 then invalid_arg "Bitmap.find_run_set";
  let upto = min upto t.bits in
  (* [run] counts consecutive set bits ending just before [i]. *)
  let rec go i run =
    if run >= len then Some (i - len)
    else if i >= upto then None
    else
      match Bytes.unsafe_get t.data (i lsr 3) with
      | '\000' when i land 7 = 0 -> go (i + 8) 0
      | '\255' when i land 7 = 0 && run + 8 < len -> go (i + 8) (run + 8)
      | b ->
        if Char.code b land (1 lsl (i land 7)) <> 0 then go (i + 1) (run + 1)
        else go (i + 1) 0
  in
  if from < 0 || from >= upto then None else go from 0

let find_run_set_down t ~from ~downto_ ~len =
  if len <= 0 then invalid_arg "Bitmap.find_run_set_down";
  let from = min from (t.bits - 1) and downto_ = max downto_ 0 in
  (* [run] counts consecutive set bits starting just above [i]. *)
  let rec go i run =
    if run >= len then Some (i + 1)
    else if i < downto_ then None
    else
      match Bytes.unsafe_get t.data (i lsr 3) with
      | '\000' when i land 7 = 7 -> go (i - 8) 0
      | '\255' when i land 7 = 7 && run + 8 < len -> go (i - 8) (run + 8)
      | b ->
        if Char.code b land (1 lsl (i land 7)) <> 0 then go (i - 1) (run + 1)
        else go (i - 1) 0
  in
  go from 0

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
