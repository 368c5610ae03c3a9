open Cedar_util
open Cedar_disk
open Cedar_fsbase

type t = { boot_count : int; params : Params.t }

let magic = 0x42544631 (* "BTF1" *)

(* The byte after the boot count is reserved and written as zero; pages
   that still carry a shutdown flag there decode unchanged. The byte
   after [log_vam] is written as zero too: it once flagged the retired
   track-tolerant log, whose records this build cannot read. *)
let encode ~sector_bytes ~boot_count (p : Params.t) =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  Bytebuf.Writer.u32 w boot_count;
  Bytebuf.Writer.u8 w 0;
  Bytebuf.Writer.u16 w p.fnt_page_sectors;
  Bytebuf.Writer.u32 w p.fnt_pages;
  Bytebuf.Writer.u32 w p.log_sectors;
  Bytebuf.Writer.bool w p.log_vam;
  Bytebuf.Writer.u8 w 0;
  Bytebuf.Writer.u8 w p.shard_id;
  Bytebuf.Writer.seal w ~size:sector_bytes

(* A page with the retired flag set still decodes, so that it reads as
   this system's page and not as an unreadable one: [read] refuses it. *)
let decode geom b =
  Bytebuf.Reader.unseal ~magic b (fun r ->
      let boot_count = Bytebuf.Reader.u32 r in
      ignore (Bytebuf.Reader.u8 r : int);
      let fnt_page_sectors = Bytebuf.Reader.u16 r in
      let fnt_pages = Bytebuf.Reader.u32 r in
      let log_sectors = Bytebuf.Reader.u32 r in
      let log_vam = Bytebuf.Reader.bool r in
      let retired = Bytebuf.Reader.u8 r <> 0 in
      let shard_id = Bytebuf.Reader.u8 r in
      ( retired,
        {
          boot_count;
          params =
            {
              (Params.for_geometry geom) with
              fnt_page_sectors;
              fnt_pages;
              log_sectors;
              log_vam;
              shard_id;
            };
        } ))

let write device ~boot_count params =
  let sector_bytes = (Device.geometry device).Geometry.sector_bytes in
  Meta_frame.write_mirrored device ~sector:0 (encode ~sector_bytes ~boot_count params)

let read device =
  match Meta_frame.read_mirrored device ~sector:0 (decode (Device.geometry device)) with
  | Some (true, _) ->
    Fs_error.raise_
      (Fs_error.Unsupported_format
         "the volume was formatted with the retired track-tolerant log \
          (mkfs --track-tolerant), whose records this build cannot read")
  | Some (false, t) -> Some t
  | None -> None

let adopt t (runtime : Params.t) =
  {
    runtime with
    fnt_page_sectors = t.params.fnt_page_sectors;
    fnt_pages = t.params.fnt_pages;
    log_sectors = t.params.log_sectors;
    shard_id = t.params.shard_id;
  }
