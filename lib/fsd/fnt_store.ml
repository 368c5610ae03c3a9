open Cedar_util
open Cedar_disk
open Cedar_fsbase

type cached = {
  mutable payload : bytes;
  mutable dirty : bool;
  mutable modified : bool; (* changed since last logged *)
  mutable third : int option; (* where the image was last logged *)
  mutable dirtied_at : int; (* virtual time the page last became dirty *)
  mutable logged : bytes option;
      (* The committed image as last logged, retained from the moment the
         payload diverges from it. When the third holding that log copy
         is reclaimed, this — never the uncommitted payload — is what
         goes home; [None] while the payload itself is the logged image
         (or nothing is logged). *)
  mutable framed : bytes;
      (* The payload [frame] was last built from, compared with [==] as
         payloads are never mutated once handed over; [Bytes.empty] until
         the page is first framed. *)
  mutable frame : bytes; (* the framed image of [framed], rebuilt in place *)
  mutable frame_crcs : int array; (* the CRC-32 of each sector of [frame] *)
}

type anchor = {
  mutable root : int option;
  alloc_map : Bitmap.t; (* set = page slot in use *)
  mutable next_uid : int64;
}

type t = {
  device : Device.t;
  layout : Layout.t;
  cache : (int, cached) Lru.t;
  anchor : anchor;
  mutable to_log_count : int;
      (* cached pages both dirty and modified, i.e. [pages_to_log]'s
         length; kept up to date wherever those flags change *)
  mutable home_writes : int;
  mutable repairs : int;
  dirty_age : Stats.t; (* dirty-to-home-write latency per page flush *)
}

let trailer_bytes = 16
let page_magic = 0x464e5431 (* "FNT1" *)

let full_page_bytes layout =
  layout.Layout.params.Params.fnt_page_sectors
  * layout.Layout.geom.Geometry.sector_bytes

let page_bytes t = full_page_bytes t.layout - trailer_bytes

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

(* The page image: the payload, then a 16-byte trailer of u32s — magic,
   page number, the payload's CRC-32 and a zero word. [frame_into]
   builds it in [out] and puts each sector's CRC in [crcs], hashing every
   byte once: the payload's CRC is the whole sectors' CRCs combined with
   that of the last sector's head (the bytes before the trailer), and
   the last sector's CRC continues that head CRC over the trailer. *)
let frame_into layout ~page payload out crcs =
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  let k = layout.Layout.params.Params.fnt_page_sectors in
  let n = full_page_bytes layout - trailer_bytes in
  if Bytes.length payload <> n then invalid_arg "Fnt_store.frame: payload size";
  Bytes.blit payload 0 out 0 n;
  let payload_crc = ref 0 in
  for i = 0 to k - 2 do
    let c = Crc32.bytes ~pos:(i * sb) ~len:sb out in
    crcs.(i) <- c;
    payload_crc := Crc32.combine !payload_crc c ~len:sb
  done;
  let head_len = sb - trailer_bytes in
  let head = Crc32.bytes ~pos:((k - 1) * sb) ~len:head_len out in
  let payload_crc = Crc32.combine !payload_crc head ~len:head_len in
  Bytes.set_int32_le out n (Int32.of_int page_magic);
  Bytes.set_int32_le out (n + 4) (Int32.of_int page);
  Bytes.set_int32_le out (n + 8) (Int32.of_int payload_crc);
  Bytes.set_int32_le out (n + 12) 0l;
  crcs.(k - 1) <- Crc32.bytes ~crc:head ~pos:n ~len:trailer_bytes out

let frame layout ~page payload =
  let out = Bytes.create (full_page_bytes layout) in
  frame_into layout ~page payload out
    (Array.make layout.Layout.params.Params.fnt_page_sectors 0);
  out

let unframe layout ~page image =
  let full = full_page_bytes layout in
  if Bytes.length image <> full then None
  else begin
    let payload = Bytes.sub image 0 (full - trailer_bytes) in
    let r = Bytebuf.Reader.of_bytes ~pos:(full - trailer_bytes) image in
    match
      let m = Bytebuf.Reader.u32 r in
      let id = Bytebuf.Reader.u32 r in
      let crc = Bytebuf.Reader.u32 r in
      (m, id, crc)
    with
    | exception Bytebuf.Decode_error _ -> None
    | m, id, crc ->
      if m = page_magic && id = page && crc = Crc32.bytes payload then Some payload
      else None
  end

(* ------------------------------------------------------------------ *)
(* Anchor codec (page 0's payload)                                     *)

let anchor_magic = 0x414e4331 (* "ANC1" *)

let encode_anchor t =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w anchor_magic;
  (match t.anchor.root with
  | None -> Bytebuf.Writer.u32 w 0
  | Some r -> Bytebuf.Writer.u32 w (r + 1));
  Bytebuf.Writer.u64 w t.anchor.next_uid;
  Bytebuf.Writer.u32 w (Bitmap.length t.anchor.alloc_map);
  Bytebuf.Writer.raw w (Bitmap.to_bytes t.anchor.alloc_map);
  let b = Bytebuf.Writer.contents w in
  if Bytes.length b > page_bytes t then
    invalid_arg "Fnt_store: anchor exceeds one page; reduce fnt_pages";
  let out = Bytes.make (page_bytes t) '\000' in
  Bytes.blit b 0 out 0 (Bytes.length b);
  out

let decode_anchor payload =
  let r = Bytebuf.Reader.of_bytes payload in
  match
    let m = Bytebuf.Reader.u32 r in
    if m <> anchor_magic then None
    else begin
      let root = match Bytebuf.Reader.u32 r with 0 -> None | n -> Some (n - 1) in
      let next_uid = Bytebuf.Reader.u64 r in
      let bits = Bytebuf.Reader.u32 r in
      let map = Bitmap.of_bytes ~bits (Bytebuf.Reader.raw r ((bits + 7) / 8)) in
      Some { root; alloc_map = map; next_uid }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None

(* ------------------------------------------------------------------ *)
(* Home I/O                                                            *)

let write_home_image device layout ~page image =
  if Bytes.length image <> full_page_bytes layout then
    invalid_arg "Fnt_store.write_home_image";
  Device.write_run device ~sector:(Layout.fnt_sector_a layout ~page) image;
  Device.write_run device ~sector:(Layout.fnt_sector_b layout ~page) image

(* Both copies are read and checked (§5.1); a lone bad copy is repaired.
   When both copies carry a valid checksum but disagree (a torn
   home-write pair, or a wild write that happens to re-frame), copy A is
   authoritative — home writes go A then B, so A is never the stale one —
   and B is rewritten from it. *)
let note_twin_repair t page =
  t.repairs <- t.repairs + 1;
  let tr = Device.trace t.device in
  if Cedar_obs.Trace.enabled tr then
    Cedar_obs.Trace.emit tr
      ~at:(Simclock.now (Device.clock t.device))
      (Cedar_obs.Trace.Scrub_repair { target = "fnt-twin"; loc = page })

let read_home t page =
  let n = t.layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run t.device ~sector ~count:n with
    | image -> unframe t.layout ~page image
    | exception Device.Error _ -> None
  in
  let sa = Layout.fnt_sector_a t.layout ~page in
  let sb = Layout.fnt_sector_b t.layout ~page in
  let a = read_copy sa and b = read_copy sb in
  match (a, b) with
  | Some pa, Some pb ->
    if not (Bytes.equal pa pb) then begin
      note_twin_repair t page;
      Device.write_run t.device ~sector:sb (frame t.layout ~page pa)
    end;
    pa
  | Some pa, None ->
    note_twin_repair t page;
    Device.write_run t.device ~sector:sb (frame t.layout ~page pa);
    pa
  | None, Some pb ->
    note_twin_repair t page;
    Device.write_run t.device ~sector:sa (frame t.layout ~page pb);
    pb
  | None, None ->
    Fs_error.raise_
      (Fs_error.Corrupt_metadata
         (Printf.sprintf "both copies of name-table page %d are bad" page))

(* Twin-copy read without a store (the scavenger probes pages of a
   volume it cannot attach). No repair side effects. *)
let try_read_home device layout ~page =
  let n = layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run device ~sector ~count:n with
    | image -> unframe layout ~page image
    | exception Device.Error _ -> None
  in
  match read_copy (Layout.fnt_sector_a layout ~page) with
  | Some p -> Some p
  | None -> read_copy (Layout.fnt_sector_b layout ~page)

(* One scrub-demon step: verify both home copies against their checksums
   and each other; rewrite a lone bad or stale copy from its twin. The
   cache is deliberately not consulted — a dirty page's home copies are
   legitimately old but must still agree with each other. *)
let scrub_page t page =
  let n = t.layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run t.device ~sector ~count:n with
    | image -> unframe t.layout ~page image
    | exception Device.Error _ -> None
  in
  let sa = Layout.fnt_sector_a t.layout ~page in
  let sb = Layout.fnt_sector_b t.layout ~page in
  let repair sector payload =
    t.repairs <- t.repairs + 1;
    Device.write_run t.device ~sector (frame t.layout ~page payload)
  in
  match (read_copy sa, read_copy sb) with
  | Some pa, Some pb ->
    if Bytes.equal pa pb then `Ok
    else begin
      repair sb pa;
      `Repaired
    end
  | Some pa, None ->
    repair sb pa;
    `Repaired
  | None, Some pb ->
    repair sa pb;
    `Repaired
  | None, None -> `Unreadable

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let mk device layout anchor =
  let t =
    {
      device;
      layout;
      cache = Lru.create ~capacity:layout.Layout.params.Params.cache_pages;
      anchor;
      to_log_count = 0;
      home_writes = 0;
      repairs = 0;
      dirty_age = Stats.create ();
    }
  in
  let m = Device.metrics device in
  Cedar_obs.Metrics.gauge m "fnt.home_writes" (fun () -> t.home_writes);
  Cedar_obs.Metrics.gauge m "fnt.repairs" (fun () -> t.repairs);
  Cedar_obs.Metrics.register_dist m "fnt.dirty_page_age_us" t.dirty_age;
  t

let create_fresh device layout =
  let map = Bitmap.create layout.Layout.params.Params.fnt_pages in
  Bitmap.set map 0; (* the anchor page itself *)
  mk device layout { root = None; alloc_map = map; next_uid = 1L }

let attach device layout =
  let t = mk device layout { root = None; alloc_map = Bitmap.create 1; next_uid = 1L } in
  let payload = read_home t 0 in
  match decode_anchor payload with
  | Some anchor ->
    let t' = mk device layout anchor in
    (* carry over a twin repair made while reading the anchor *)
    t'.repairs <- t.repairs;
    t'
  | None ->
    Fs_error.raise_ (Fs_error.Corrupt_metadata "name-table anchor does not decode")

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

(* A page the next group commit must log. *)
let to_log c = c.dirty && c.modified

let insert_cache t page c =
  (* Evictions are always clean (dirty pages are pinned). *)
  ignore (Lru.add t.cache page c : (int * cached) list);
  if c.dirty then Lru.pin t.cache page

let read t page =
  match Lru.find t.cache page with
  | Some c -> c.payload
  | None ->
    let payload = read_home t page in
    insert_cache t page
      {
        payload;
        dirty = false;
        modified = false;
        third = None;
        dirtied_at = 0;
        logged = None;
        framed = Bytes.empty;
        frame = Bytes.empty;
        frame_crcs = [||];
      };
    payload

let write t page payload =
  if Bytes.length payload <> page_bytes t then invalid_arg "Fnt_store.write: size";
  let now = Simclock.now (Device.clock t.device) in
  match Lru.peek t.cache page with
  | Some c ->
    (* First modification after a log commit: the payload about to be
       replaced is the committed logged image. Retain it — it is what
       must go home if its third reclaims before this change commits. *)
    if c.dirty && (not c.modified) && c.logged = None then c.logged <- Some c.payload;
    if not (to_log c) then t.to_log_count <- t.to_log_count + 1;
    c.payload <- payload;
    c.modified <- true;
    if not c.dirty then begin
      c.dirty <- true;
      c.third <- None;
      c.dirtied_at <- now;
      Lru.pin t.cache page
    end
  | None ->
    t.to_log_count <- t.to_log_count + 1;
    insert_cache t page
      {
        payload;
        dirty = true;
        modified = true;
        third = None;
        dirtied_at = now;
        logged = None;
        framed = Bytes.empty;
        frame = Bytes.empty;
        frame_crcs = [||];
      }

(* Anchor mutations are ordinary writes of page 0. *)
let write_anchor t = write t 0 (encode_anchor t)

let alloc t =
  match
    let map = t.anchor.alloc_map in
    let rec go i =
      if i >= Bitmap.length map then None
      else if not (Bitmap.get map i) then Some i
      else go (i + 1)
    in
    go 1
  with
  | None -> Fs_error.raise_ (Fs_error.Corrupt_metadata "name table out of pages")
  | Some page ->
    Bitmap.set t.anchor.alloc_map page;
    write_anchor t;
    page

let free t page =
  if page = 0 || not (Bitmap.get t.anchor.alloc_map page) then
    invalid_arg "Fnt_store.free";
  Bitmap.clear t.anchor.alloc_map page;
  (match Lru.peek t.cache page with
  | Some c when to_log c -> t.to_log_count <- t.to_log_count - 1
  | Some _ | None -> ());
  Lru.remove t.cache page;
  write_anchor t

let get_root t = t.anchor.root

let set_root t r =
  t.anchor.root <- r;
  write_anchor t

let fresh_uid t =
  let uid = t.anchor.next_uid in
  t.anchor.next_uid <- Int64.add uid 1L;
  write_anchor t;
  uid

let next_uid_peek t = t.anchor.next_uid

let bump_uid_floor t uid =
  if Int64.compare uid t.anchor.next_uid > 0 then begin
    t.anchor.next_uid <- uid;
    write_anchor t
  end

let page_in_use t page =
  page >= 0
  && page < Bitmap.length t.anchor.alloc_map
  && Bitmap.get t.anchor.alloc_map page

(* ------------------------------------------------------------------ *)
(* Log integration                                                     *)

(* Framed once per logged version: the page's own buffer is reframed
   only when the payload has changed since it was last framed. *)
let framed t page =
  match Lru.peek t.cache page with
  | Some c ->
    if c.framed != c.payload then begin
      if Bytes.length c.frame = 0 then begin
        c.frame <- Bytes.create (full_page_bytes t.layout);
        c.frame_crcs <- Array.make t.layout.Layout.params.Params.fnt_page_sectors 0
      end;
      frame_into t.layout ~page c.payload c.frame c.frame_crcs;
      c.framed <- c.payload
    end;
    c
  | None -> invalid_arg (Printf.sprintf "Fnt_store.framed_image: page %d not cached" page)

let framed_image t page = (framed t page).frame

let logged_unit t page =
  let c = framed t page in
  { Log.kind = Log.Fnt_page page; image = c.frame; crcs = c.frame_crcs }

let mark_logged t pages ~third =
  List.iter
    (fun page ->
      match Lru.peek t.cache page with
      | Some c when c.dirty ->
        if c.modified then t.to_log_count <- t.to_log_count - 1;
        c.third <- Some third;
        c.modified <- false;
        (* The payload is now itself the committed image. *)
        c.logged <- None
      | Some _ | None -> ())
    pages

let home_write t page c =
  (* A diverged page homes its retained committed image; the newer,
     uncommitted payload stays dirty and pinned until its own commit.
     That image's frame is usually the page's own, built when it was
     logged; but the force logging the newer payload may already have
     reframed the page's buffer, so any other image is framed afresh. *)
  let diverged = c.modified && c.logged <> None in
  let image = match c.logged with Some l when c.modified -> l | _ -> c.payload in
  write_home_image t.device t.layout ~page
    (if image == c.framed then c.frame else frame t.layout ~page image);
  let now = Simclock.now (Device.clock t.device) in
  let tr = Device.trace t.device in
  if Cedar_obs.Trace.enabled tr then
    Cedar_obs.Trace.emit tr ~at:now (Cedar_obs.Trace.Fnt_write_twice { page });
  t.home_writes <- t.home_writes + 1;
  c.third <- None;
  c.logged <- None;
  if not diverged then begin
    Stats.add t.dirty_age (float_of_int (now - c.dirtied_at));
    if to_log c then t.to_log_count <- t.to_log_count - 1;
    c.dirty <- false;
    c.modified <- false;
    Lru.unpin t.cache page
  end

(* Pages that claim [third] and could not be safely homed: modified since
   their last commit with no retained committed image. Writing their
   payload home would make uncommitted state durable while the log copy
   that could roll it back is destroyed — refuse instead. Unreachable
   while the retention protocol in [write] holds. *)
let stalled_in_third t third =
  let n = ref 0 in
  Lru.iter t.cache (fun _ c ->
      if c.dirty && c.third = Some third && c.modified && c.logged = None then incr n);
  !n

let flush_third t third =
  (match stalled_in_third t third with
  | 0 -> ()
  | pinned_pages ->
    Fs_error.raise_ (Fs_error.Log_reclaim_stall { third; pinned_pages }));
  let victims = ref [] in
  Lru.iter t.cache (fun page c ->
      if c.dirty && c.third = Some third then victims := (page, c) :: !victims);
  List.iter (fun (page, c) -> home_write t page c) !victims;
  List.length !victims

(* Bounded variant for the background home-write demon: flush up to
   [budget] pages claiming [third], lowest page first, skipping (rather
   than raising on) any stalled page — the synchronous reclaim at third
   entry remains the correctness backstop. *)
let flush_some_third t third ~budget =
  let victims = ref [] in
  Lru.iter t.cache (fun page c ->
      if c.dirty && c.third = Some third && not (c.modified && c.logged = None) then
        victims := (page, c) :: !victims);
  let victims = List.sort compare !victims in
  let n = ref 0 in
  List.iter
    (fun (page, c) ->
      if !n < budget then begin
        home_write t page c;
        incr n
      end)
    victims;
  !n

let flush_all_dirty t =
  let victims = ref [] in
  Lru.iter t.cache (fun page c -> if c.dirty then victims := (page, c) :: !victims);
  List.iter (fun (page, c) -> home_write t page c) !victims;
  List.length !victims

let dirty_pages t =
  let acc = ref [] in
  Lru.iter t.cache (fun page c -> if c.dirty then acc := page :: !acc);
  List.sort compare !acc

let pages_to_log t =
  let acc = ref [] in
  Lru.iter t.cache (fun page c -> if to_log c then acc := page :: !acc);
  List.sort compare !acc

let pages_to_log_count t = t.to_log_count

let drop_clean_cache t =
  let clean = ref [] in
  Lru.iter t.cache (fun page c -> if not c.dirty then clean := page :: !clean);
  List.iter (Lru.remove t.cache) !clean

let flush_anchor t =
  write_anchor t;
  ignore (flush_all_dirty t : int)

let home_writes t = t.home_writes
let repairs t = t.repairs
