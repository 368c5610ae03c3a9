open Cedar_util
open Cedar_disk

(* ------------------------------------------------------------------ *)
(* Name-table page frame                                               *)

let trailer_bytes = 16

let set_trailer image ~magic ~page ~crc =
  let n = Bytes.length image - trailer_bytes in
  Bytes.set_int32_le image n (Int32.of_int magic);
  Bytes.set_int32_le image (n + 4) (Int32.of_int page);
  Bytes.set_int32_le image (n + 8) (Int32.of_int crc);
  Bytes.set_int32_le image (n + 12) 0l

let frame ~magic ~page payload =
  let image = Bytes.extend payload 0 trailer_bytes in
  set_trailer image ~magic ~page ~crc:(Crc32.bytes payload);
  image

let frame_valid ~magic ~page image =
  let n = Bytes.length image - trailer_bytes in
  let word i = Int32.to_int (Bytes.get_int32_le image (n + (4 * i))) land 0xffffffff in
  n >= 0 && word 0 = magic && word 1 = page && word 2 = Crc32.bytes ~len:n image

let unframe ~magic ~page image =
  if frame_valid ~magic ~page image then
    Some (Bytes.sub image 0 (Bytes.length image - trailer_bytes))
  else None

(* ------------------------------------------------------------------ *)
(* Anchor payload                                                      *)

type anchor = {
  mutable root : int option;
  alloc_map : Bitmap.t;
  mutable next_uid : int64;
}

(* Magic, root + 1 (0 for none), the uid counter, the map's length in
   bits, then the packed map, written straight into a zeroed page. *)
let encode_anchor ~magic ~page_bytes a =
  let map = a.alloc_map in
  let map_len = (Bitmap.length map + 7) / 8 in
  if 20 + map_len > page_bytes then
    invalid_arg "Meta_frame: anchor exceeds one page; reduce fnt_pages";
  let out = Bytes.make page_bytes '\000' in
  Bytes.set_int32_le out 0 (Int32.of_int magic);
  Bytes.set_int32_le out 4
    (Int32.of_int (match a.root with None -> 0 | Some r -> r + 1));
  Bytes.set_int64_le out 8 a.next_uid;
  Bytes.set_int32_le out 16 (Int32.of_int (Bitmap.length map));
  Bitmap.blit_to_bytes map ~off:0 out ~pos:20 ~len:map_len;
  out

let decode_anchor ~magic payload =
  let r = Bytebuf.Reader.of_bytes payload in
  match
    if Bytebuf.Reader.u32 r <> magic then None
    else begin
      let root = match Bytebuf.Reader.u32 r with 0 -> None | n -> Some (n - 1) in
      let next_uid = Bytebuf.Reader.u64 r in
      let bits = Bytebuf.Reader.u32 r in
      let alloc_map = Bitmap.of_bytes ~bits (Bytebuf.Reader.raw r ((bits + 7) / 8)) in
      Some { root; alloc_map; next_uid }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None

(* ------------------------------------------------------------------ *)
(* Mirrored sector                                                     *)

let write_mirrored device ~sector page =
  let sb = Bytes.length page in
  let buf = Bytes.make (3 * sb) '\000' in
  Bytes.blit page 0 buf 0 sb;
  Bytes.blit page 0 buf (2 * sb) sb;
  Device.write_run device ~sector buf

let read_mirrored device ~sector decode =
  let try_at s =
    match Device.read device s with
    | b -> decode b
    | exception Device.Error _ -> None
  in
  match try_at sector with Some v -> Some v | None -> try_at (sector + 2)
