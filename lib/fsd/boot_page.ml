open Cedar_util
open Cedar_disk

type t = {
  boot_count : int;
  clean_shutdown : bool;
  fnt_page_sectors : int;
  fnt_pages : int;
  log_sectors : int;
  log_vam : bool;
  track_tolerant_log : bool;
  shard_id : int;
}

let magic = 0x42544631 (* "BTF1" *)

let encode t ~sector_bytes =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  Bytebuf.Writer.u32 w t.boot_count;
  Bytebuf.Writer.bool w t.clean_shutdown;
  Bytebuf.Writer.u16 w t.fnt_page_sectors;
  Bytebuf.Writer.u32 w t.fnt_pages;
  Bytebuf.Writer.u32 w t.log_sectors;
  Bytebuf.Writer.bool w t.log_vam;
  Bytebuf.Writer.bool w t.track_tolerant_log;
  Bytebuf.Writer.u8 w t.shard_id;
  Bytebuf.Writer.seal w ~size:sector_bytes

let decode b =
  match
    let r = Bytebuf.Reader.of_bytes b in
    let m = Bytebuf.Reader.u32 r in
    if m <> magic then None
    else begin
      let boot_count = Bytebuf.Reader.u32 r in
      let clean_shutdown = Bytebuf.Reader.bool r in
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
            clean_shutdown;
            fnt_page_sectors;
            fnt_pages;
            log_sectors;
            log_vam;
            track_tolerant_log;
            shard_id;
          }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None

let write device ~sector_bytes t =
  let page = encode t ~sector_bytes in
  let buf = Bytes.make (3 * sector_bytes) '\000' in
  Bytes.blit page 0 buf 0 sector_bytes;
  Bytes.blit page 0 buf (2 * sector_bytes) sector_bytes;
  Device.write_run device ~sector:0 buf

let read device =
  let try_at s =
    match Device.read device s with
    | b -> decode b
    | exception Device.Error _ -> None
  in
  match try_at 0 with Some t -> Some t | None -> try_at 2
