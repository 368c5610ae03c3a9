(* Slicing-by-8 (Kounavis & Berry). [table.(k * 256 + n)] is the CRC of
   byte [n] followed by [k] zero bytes; slice 0 is the classic
   byte-at-a-time table. Eight lookups, one per slice, fold eight input
   bytes at once. The remainder lives in the low 32 bits of an int. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xff) lxor (prev lsr 8)
  done;
  t

let bytes ?(crc = 0) ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let c = ref (crc lxor 0xffffffff) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    (* One 64-bit load: bytes [i..i+3] fold into the remainder;
       [i+4..i+7] are looked up as they stand. Every index is a slice
       base plus a byte, so the unchecked reads stay inside [table]. *)
    let w = Bytes.get_int64_le b !i in
    let lo = Int64.to_int w land 0xffffffff lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get table (0x700 lor (lo land 0xff))
      lxor Array.unsafe_get table (0x600 lor ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get table (0x500 lor ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get table (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get table (0x300 lor (hi land 0xff))
      lxor Array.unsafe_get table (0x200 lor ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get table (0x100 lor ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get table (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s)

(* Combining (zlib's crc32_combine). For A followed by B,
   crc (A B) = Z (crc A) lxor crc B, where Z feeds len(B) zero bytes
   through the bare register: multiplication by x^(8 len(B)) mod P, a
   linear map (the pre- and post-conditioning cancel). Z is tabulated per
   length as four 256-entry tables, one per byte of its 32-bit input,
   built from Z's images of the 32 basis bits. *)
let zeros_operator len =
  let feed c =
    let c = ref c in
    for _ = 1 to len do
      c := table.(!c land 0xff) lxor (!c lsr 8)
    done;
    !c
  in
  let basis = Array.init 32 (fun bit -> feed (1 lsl bit)) in
  Array.init 1024 (fun i ->
      let n = i land 0xff and base = (i lsr 8) * 8 in
      let acc = ref 0 in
      for j = 0 to 7 do
        if n land (1 lsl j) <> 0 then acc := !acc lxor basis.(base + j)
      done;
      !acc)

(* The operators built so far, newest first. Callers combine at a few
   fixed lengths (a sector, a sector less a trailer), so a short linear
   scan finds them; a length not among the last [operator_slots] is
   tabulated afresh. *)
let operator_slots = 8
let op_lens = Array.make operator_slots (-1)
let op_tables = Array.make operator_slots [||]
let op_next = ref 0

let operator len =
  let rec find i =
    if i = operator_slots then begin
      let z = zeros_operator len in
      let slot = !op_next in
      op_lens.(slot) <- len;
      op_tables.(slot) <- z;
      op_next := (slot + 1) mod operator_slots;
      z
    end
    else if op_lens.(i) = len then op_tables.(i)
    else find (i + 1)
  in
  find 0

let combine a b ~len =
  if len < 0 then invalid_arg "Crc32.combine";
  let z = operator len in
  z.(a land 0xff)
  lxor z.(0x100 lor ((a lsr 8) land 0xff))
  lxor z.(0x200 lor ((a lsr 16) land 0xff))
  lxor z.(0x300 lor ((a lsr 24) land 0xff))
  lxor b
