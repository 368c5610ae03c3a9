(* Slicing-by-8 (Kounavis & Berry), the path for a CPU without the
   kernel. [table.(k * 256 + n)] is the CRC of byte [n] followed by [k]
   zero bytes; slice 0 is the classic byte-at-a-time table. Eight
   lookups, one per slice, fold eight input bytes at once. The remainder
   lives in the low 32 bits of an int. *)
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

let sliced crc b pos len =
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

(* The carry-less-multiply kernel (crc32_stubs.c). It reads the slice
   unchecked, so every call checks it first. *)
external kernel_init : unit -> bool = "cedar_crc32_kernel_init" [@@noalloc]
external kernel : int -> bytes -> int -> int -> int = "cedar_crc32_kernel" [@@noalloc]

(* Chosen once, from the CPU. *)
let use_kernel = kernel_init ()

(* The slice's length, after refusing a slice that is not inside [b];
   written so that no sum can overflow past the check. *)
let slice_len name b pos len =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || len > Bytes.length b - pos then invalid_arg name;
  len

let bytes ?(crc = 0) ?(pos = 0) ?len b =
  let len = slice_len "Crc32.bytes" b pos len in
  if use_kernel then kernel crc b pos len else sliced crc b pos len

let portable ?(crc = 0) ?(pos = 0) ?len b =
  sliced crc b pos (slice_len "Crc32.portable" b pos len)

let string s = bytes (Bytes.unsafe_of_string s)
