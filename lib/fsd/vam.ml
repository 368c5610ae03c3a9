open Cedar_util
open Cedar_disk
open Cedar_fsbase

type mode = Snapshot | Log_based

type t = {
  layout : Layout.t;
  free : Bitmap.t;
  mutable shadow : (int * int) list; (* (pos, len) runs freed since the last commit *)
  mutable shadow_sectors : int; (* their total length *)
  dirty_chunks : (int, unit) Hashtbl.t; (* bitmap chunks touched since drain *)
  mutable quarantined : int;
      (* sectors the scavenger took out of the free pool that no entry
         claims; saved with the map *)
}

let total t = Bitmap.length t.free

let chunk_bytes layout = layout.Layout.geom.Geometry.sector_bytes

let of_free ?(quarantined = 0) layout free =
  {
    layout;
    free;
    shadow = [];
    shadow_sectors = 0;
    dirty_chunks = Hashtbl.create 16;
    quarantined;
  }

let create_none_free layout =
  of_free layout (Bitmap.create (Geometry.total_sectors layout.Layout.geom))

let create_all_free layout =
  let t = create_none_free layout in
  let set_range lo hi = if hi > lo then Bitmap.set_run t.free ~pos:lo ~len:(hi - lo) in
  set_range layout.Layout.small_lo layout.Layout.small_hi;
  set_range layout.Layout.big_lo layout.Layout.big_hi;
  t

let layout t = t.layout
let is_free t s = Bitmap.get t.free s
let free_count t = Bitmap.count t.free

let check_run t ~pos ~len =
  if len <= 0 || pos < 0 || pos + len > total t then invalid_arg "Vam: bad run"

(* Chunk c covers bits [c * 8 * chunk_bytes, ...): one save-area sector. *)
let mark_chunks t ~pos ~len =
  let per = 8 * chunk_bytes t.layout in
  for c = pos / per to (pos + len - 1) / per do
    Hashtbl.replace t.dirty_chunks c ()
  done

let allocate_run t ~pos ~len =
  check_run t ~pos ~len;
  if not (Bitmap.all_set_in_run t.free ~pos ~len) then
    invalid_arg (Printf.sprintf "Vam.allocate_run: [%d,+%d) not free" pos len);
  Bitmap.clear_run t.free ~pos ~len;
  mark_chunks t ~pos ~len

(* The whole run is checked before any bit is set, so a release that
   fails frees nothing. The metadata block separates the two data
   areas, so a run of data sectors lies inside one of them. *)
let release_run t ~pos ~len =
  check_run t ~pos ~len;
  let l = t.layout in
  let inside lo hi = pos >= lo && pos + len <= hi in
  if
    not
      (inside l.Layout.small_lo l.Layout.small_hi || inside l.Layout.big_lo l.Layout.big_hi)
  then invalid_arg "Vam.release_run: metadata sector";
  if not (Bitmap.all_clear_in_run t.free ~pos ~len) then
    invalid_arg "Vam.release_run: double free";
  Bitmap.set_run t.free ~pos ~len;
  mark_chunks t ~pos ~len

let shadow_release_run t ~pos ~len =
  check_run t ~pos ~len;
  t.shadow <- (pos, len) :: t.shadow;
  t.shadow_sectors <- t.shadow_sectors + len

(* Every pending run is checked before any bit is set: a sector freed
   twice, or already free, would hand one page to two files. *)
let commit_shadow t =
  let rec check prev_end = function
    | [] -> ()
    | (pos, len) :: rest ->
      if pos < prev_end then invalid_arg "Vam.commit_shadow: overlapping frees";
      if not (Bitmap.all_clear_in_run t.free ~pos ~len) then
        invalid_arg "Vam.commit_shadow: double free";
      check (pos + len) rest
  in
  check 0 (List.sort compare t.shadow);
  List.iter
    (fun (pos, len) ->
      Bitmap.set_run t.free ~pos ~len;
      mark_chunks t ~pos ~len)
    t.shadow;
  t.shadow <- [];
  t.shadow_sectors <- 0

let shadow_count t = t.shadow_sectors
let find_free_run t = Bitmap.find_run_set t.free
let find_free_run_down t = Bitmap.find_run_set_down t.free

let mark_allocated_for_rebuild t s =
  if Bitmap.get t.free s then Bitmap.clear t.free s

let mark_entry_allocated t (e : Entry.t) =
  Bitmap.clear t.free e.Entry.anchor;
  List.iter
    (fun r -> Bitmap.clear_run t.free ~pos:r.Run_table.start ~len:r.Run_table.len)
    (Run_table.runs e.Entry.runs)

let quarantine t s =
  if Bitmap.get t.free s then begin
    Bitmap.clear t.free s;
    t.quarantined <- t.quarantined + 1
  end

let quarantined t = t.quarantined

(* --- chunk interface for the VAM-logging extension ------------------- *)

let chunk_count t = t.layout.Layout.vam_sectors - 1

(* Bytes of the packed map that chunk [c] holds; the rest of its image
   is zero padding. *)
let chunk_span t c =
  let cb = chunk_bytes t.layout in
  let off = c * cb in
  (off, max 0 (min cb (((Bitmap.length t.free + 7) / 8) - off)))

let chunk_image t c =
  if c < 0 || c >= chunk_count t then invalid_arg "Vam.chunk_image";
  let out = Bytes.make (chunk_bytes t.layout) '\000' in
  let off, len = chunk_span t c in
  if len > 0 then Bitmap.blit_to_bytes t.free ~off out ~pos:0 ~len;
  out

let apply_chunk t c image =
  if c < 0 || c >= chunk_count t then invalid_arg "Vam.apply_chunk";
  if Bytes.length image <> chunk_bytes t.layout then invalid_arg "Vam.apply_chunk: image size";
  let off, len = chunk_span t c in
  if len > 0 then Bitmap.overwrite_bytes t.free ~off (Bytes.sub image 0 len)

let drain_dirty_chunks t =
  let cs = Hashtbl.fold (fun c () acc -> c :: acc) t.dirty_chunks [] in
  Hashtbl.reset t.dirty_chunks;
  List.sort compare cs

let dirty_chunk_count t = Hashtbl.length t.dirty_chunks

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let magic = 0x56414d31 (* "VAM1" *)

(* The save area's header sector: magic, the map's length in bits, the
   clean flag, the mode, the epoch, the body's CRC-32 and the
   quarantine count. *)
let write_header layout device ~clean ~mode ~epoch ~crc ~quarantined =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic;
  Bytebuf.Writer.u32 w (Geometry.total_sectors layout.Layout.geom);
  Bytebuf.Writer.bool w clean;
  Bytebuf.Writer.u8 w (match mode with Snapshot -> 0 | Log_based -> 1);
  Bytebuf.Writer.u64 w epoch;
  Bytebuf.Writer.u32 w crc;
  Bytebuf.Writer.u32 w quarantined;
  Device.write device layout.Layout.vam_start
    (Bytebuf.Writer.to_sector w ~size:layout.Layout.geom.Geometry.sector_bytes)

let save ?(mode = Snapshot) ?(epoch = 0L) t device =
  let sb = t.layout.Layout.geom.Geometry.sector_bytes in
  let body = Bitmap.to_bytes t.free in
  write_header t.layout device ~clean:true ~mode ~epoch ~crc:(Crc32.bytes body)
    ~quarantined:t.quarantined;
  (* Body sectors follow the header in one command. *)
  let body_sectors = t.layout.Layout.vam_sectors - 1 in
  let padded = Bytes.make (body_sectors * sb) '\000' in
  Bytes.blit body 0 padded 0 (Bytes.length body);
  Device.write_run device ~sector:(t.layout.Layout.vam_start + 1) padded

let load layout device =
  let bits = Geometry.total_sectors layout.Layout.geom in
  match Device.read device layout.Layout.vam_start with
  | exception Device.Error _ -> None
  | header -> (
    let r = Bytebuf.Reader.of_bytes header in
    match
      let m = Bytebuf.Reader.u32 r in
      let saved_bits = Bytebuf.Reader.u32 r in
      let clean = Bytebuf.Reader.bool r in
      let mode = match Bytebuf.Reader.u8 r with 0 -> Snapshot | _ -> Log_based in
      let epoch = Bytebuf.Reader.u64 r in
      let crc = Bytebuf.Reader.u32 r in
      let quarantined = Bytebuf.Reader.u32 r in
      (m, saved_bits, clean, mode, epoch, crc, quarantined)
    with
    | exception Bytebuf.Decode_error _ -> None
    | m, saved_bits, clean, mode, epoch, crc, quarantined ->
      if m <> magic || saved_bits <> bits || not clean then None
      else begin
        let body_sectors = layout.Layout.vam_sectors - 1 in
        match
          Device.read_run device ~sector:(layout.Layout.vam_start + 1)
            ~count:body_sectors
        with
        | exception Device.Error _ -> None
        | body ->
          let body = Bytes.sub body 0 ((bits + 7) / 8) in
          if Crc32.bytes body <> crc then None
          else
            Some (of_free ~quarantined layout (Bitmap.of_bytes ~bits body), mode, epoch)
      end)

let invalidate_saved layout device =
  write_header layout device ~clean:false ~mode:Snapshot ~epoch:0L ~crc:0 ~quarantined:0
