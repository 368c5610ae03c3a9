open Cedar_util
open Cedar_disk

type t = { boot_count : int; params : Params.t }

let magic = 0x42544631 (* "BTF1" *)

(* The byte after the boot count is reserved and written as zero; pages
   that still carry a shutdown flag there decode unchanged. *)
let encode ~sector_bytes ~boot_count (p : Params.t) =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  Bytebuf.Writer.u32 w boot_count;
  Bytebuf.Writer.u8 w 0;
  Bytebuf.Writer.u16 w p.fnt_page_sectors;
  Bytebuf.Writer.u32 w p.fnt_pages;
  Bytebuf.Writer.u32 w p.log_sectors;
  Bytebuf.Writer.bool w p.log_vam;
  Bytebuf.Writer.bool w p.track_tolerant_log;
  Bytebuf.Writer.u8 w p.shard_id;
  Bytebuf.Writer.seal w ~size:sector_bytes

let decode geom b =
  match
    let r = Bytebuf.Reader.of_bytes b in
    let m = Bytebuf.Reader.u32 r in
    if m <> magic then None
    else begin
      let boot_count = Bytebuf.Reader.u32 r in
      ignore (Bytebuf.Reader.u8 r : int);
      let fnt_page_sectors = Bytebuf.Reader.u16 r in
      let fnt_pages = Bytebuf.Reader.u32 r in
      let log_sectors = Bytebuf.Reader.u32 r in
      let log_vam = Bytebuf.Reader.bool r in
      let track_tolerant_log = Bytebuf.Reader.bool r in
      let shard_id = Bytebuf.Reader.u8 r in
      let body_len = Bytebuf.Reader.pos r in
      let crc = Bytebuf.Reader.u32 r in
      if crc <> Crc32.bytes ~pos:0 ~len:body_len b then None
      else
        Some
          {
            boot_count;
            params =
              {
                (Params.for_geometry geom) with
                fnt_page_sectors;
                fnt_pages;
                log_sectors;
                log_vam;
                track_tolerant_log;
                shard_id;
              };
          }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None

let write device ~boot_count params =
  let sector_bytes = (Device.geometry device).Geometry.sector_bytes in
  let page = encode ~sector_bytes ~boot_count params in
  let buf = Bytes.make (3 * sector_bytes) '\000' in
  Bytes.blit page 0 buf 0 sector_bytes;
  Bytes.blit page 0 buf (2 * sector_bytes) sector_bytes;
  Device.write_run device ~sector:0 buf

let read device =
  let try_at s =
    match Device.read device s with
    | b -> decode (Device.geometry device) b
    | exception Device.Error _ -> None
  in
  match try_at 0 with Some t -> Some t | None -> try_at 2

let adopt t (runtime : Params.t) =
  {
    runtime with
    fnt_page_sectors = t.params.fnt_page_sectors;
    fnt_pages = t.params.fnt_pages;
    log_sectors = t.params.log_sectors;
    shard_id = t.params.shard_id;
  }
