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
  mutable frame_head : int;
      (* the CRC-32 of [frame]'s last sector before the trailer; -1 while
         [frame] holds no image *)
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

(* Whether [a] and [b] hold the same bytes in [pos, pos + len). *)
let same_range a b ~pos ~len =
  let stop = pos + len in
  let rec words i =
    if i + 8 > stop then bytes i
    else Int64.equal (Bytes.get_int64_ne a i) (Bytes.get_int64_ne b i) && words (i + 8)
  and bytes i = i >= stop || (Bytes.get a i = Bytes.get b i && bytes (i + 1)) in
  words pos

(* The page image: the payload, then a 16-byte trailer of u32s — magic,
   page number, the payload's CRC-32 and a zero word. [frame_into] builds
   it in [out] and puts each sector's CRC in [crcs], hashing every byte
   at most once: the payload's CRC is the whole sectors' CRCs combined
   with that of the last sector's head (the bytes before the trailer),
   and the last sector's CRC continues that head CRC over the trailer.
   [head] is the head CRC of a frame of the same page that [out] and
   [crcs] already hold, or -1. Against such a frame, a whole sector or
   the head whose payload bytes are unchanged keeps its CRC and is
   neither copied nor hashed again: an anchor rewrite that bumps only
   the uid rehashes one sector and the trailer. Returns the new head
   CRC. *)
let frame_into layout ~page ~head payload out crcs =
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  let k = layout.Layout.params.Params.fnt_page_sectors in
  let n = full_page_bytes layout - trailer_bytes in
  if Bytes.length payload <> n then invalid_arg "Fnt_store.frame: payload size";
  let changed pos len = head < 0 || not (same_range payload out ~pos ~len) in
  let refresh pos len =
    Bytes.blit payload pos out pos len;
    Crc32.bytes ~pos ~len out
  in
  let payload_crc = ref 0 in
  for i = 0 to k - 2 do
    let pos = i * sb in
    if changed pos sb then crcs.(i) <- refresh pos sb;
    payload_crc := Crc32.combine !payload_crc crcs.(i) ~len:sb
  done;
  let head_pos = (k - 1) * sb and head_len = sb - trailer_bytes in
  let head = if changed head_pos head_len then refresh head_pos head_len else head in
  let payload_crc = Crc32.combine !payload_crc head ~len:head_len in
  Bytes.set_int32_le out n (Int32.of_int page_magic);
  Bytes.set_int32_le out (n + 4) (Int32.of_int page);
  Bytes.set_int32_le out (n + 8) (Int32.of_int payload_crc);
  Bytes.set_int32_le out (n + 12) 0l;
  crcs.(k - 1) <- Crc32.bytes ~crc:head ~pos:n ~len:trailer_bytes out;
  head

let frame layout ~page payload =
  let out = Bytes.create (full_page_bytes layout) in
  ignore
    (frame_into layout ~page ~head:(-1) payload out
       (Array.make layout.Layout.params.Params.fnt_page_sectors 0)
      : int);
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

(* Magic, root + 1 (0 for none), the uid counter, the map's length in
   bits, then the packed map, written straight into a zeroed page. *)
let encode_anchor t =
  let map = t.anchor.alloc_map in
  let map_len = (Bitmap.length map + 7) / 8 in
  if 20 + map_len > page_bytes t then
    invalid_arg "Fnt_store: anchor exceeds one page; reduce fnt_pages";
  let out = Bytes.make (page_bytes t) '\000' in
  Bytes.set_int32_le out 0 (Int32.of_int anchor_magic);
  Bytes.set_int32_le out 4
    (Int32.of_int (match t.anchor.root with None -> 0 | Some r -> r + 1));
  Bytes.set_int64_le out 8 t.anchor.next_uid;
  Bytes.set_int32_le out 16 (Int32.of_int (Bitmap.length map));
  Bitmap.blit_to_bytes map ~off:0 out ~pos:20 ~len:map_len;
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

(* The twin-copy read (§5.1): copy A, then copy B, each checked against
   its trailer. Returns the payload and the copy to rewrite from it, if
   any: a lone bad copy, or B when both check but disagree (a torn
   home-write pair, or a wild write that happens to re-frame) — home
   writes go A then B, so A is never the stale one. [None] means both
   copies are bad. With [~verify:false] a good A is taken without
   reading B, and no repair is asked for. *)
let read_twin ?(verify = true) device layout ~page =
  let n = layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run device ~sector ~count:n with
    | image -> unframe layout ~page image
    | exception Device.Error _ -> None
  in
  let sa = Layout.fnt_sector_a layout ~page in
  let sb = Layout.fnt_sector_b layout ~page in
  match read_copy sa with
  | Some pa when not verify -> Some (pa, None)
  | a -> (
    match (a, read_copy sb) with
    | Some pa, Some pb when Bytes.equal pa pb -> Some (pa, None)
    | Some pa, _ -> Some (pa, Some sb)
    | None, Some pb -> Some (pb, Some sa)
    | None, None -> None)

let try_read_home device layout ~page =
  Option.map fst (read_twin ~verify:false device layout ~page)

let rewrite_copy t ~page sector payload =
  t.repairs <- t.repairs + 1;
  Device.write_run t.device ~sector (frame t.layout ~page payload)

(* A read that misses the cache repairs a bad twin on the spot. *)
let read_home t page =
  match read_twin t.device t.layout ~page with
  | Some (payload, repair) ->
    Option.iter
      (fun sector ->
        let tr = Device.trace t.device in
        if Cedar_obs.Trace.enabled tr then
          Cedar_obs.Trace.emit tr
            ~at:(Simclock.now (Device.clock t.device))
            (Cedar_obs.Trace.Scrub_repair { target = "fnt-twin"; loc = page });
        rewrite_copy t ~page sector payload)
      repair;
    payload
  | None ->
    Fs_error.raise_
      (Fs_error.Corrupt_metadata
         (Printf.sprintf "both copies of name-table page %d are bad" page))

(* One scrub-demon step: the same read and repair, but the cache is
   deliberately not consulted — a dirty page's home copies are
   legitimately old but must still agree with each other. *)
let scrub_page t page =
  match read_twin t.device t.layout ~page with
  | Some (_, None) -> `Ok
  | Some (payload, Some sector) ->
    rewrite_copy t ~page sector payload;
    `Repaired
  | None -> `Unreadable

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

(* A page entering the cache: read from home (clean) or written (dirty,
   and so modified since it was last logged), never yet framed. *)
let entry payload ~dirty ~at =
  {
    payload;
    dirty;
    modified = dirty;
    third = None;
    dirtied_at = at;
    logged = None;
    framed = Bytes.empty;
    frame = Bytes.empty;
    frame_crcs = [||];
    frame_head = -1;
  }

let insert_cache t page c =
  (* Evictions are always clean (dirty pages are pinned). *)
  ignore (Lru.add t.cache page c : (int * cached) list);
  if c.dirty then Lru.pin t.cache page

let read t page =
  match Lru.find t.cache page with
  | Some c -> c.payload
  | None ->
    let payload = read_home t page in
    insert_cache t page (entry payload ~dirty:false ~at:0);
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
    insert_cache t page (entry payload ~dirty:true ~at:now)

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
   only when the payload has changed since it was last framed, and then
   only in the sectors that changed (see [frame_into]). *)
let framed t page =
  match Lru.peek t.cache page with
  | Some c ->
    if c.framed != c.payload then begin
      if Bytes.length c.frame = 0 then begin
        c.frame <- Bytes.create (full_page_bytes t.layout);
        c.frame_crcs <- Array.make t.layout.Layout.params.Params.fnt_page_sectors 0
      end;
      c.frame_head <- frame_into t.layout ~page ~head:c.frame_head c.payload c.frame c.frame_crcs;
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
