open Cedar_util
open Cedar_disk
open Cedar_fsbase

type cached = {
  mutable payload : bytes;
  mutable dirty : Dirty.t option;
      (* what the home copies still owe the page; [None] while they hold
         its payload *)
  mutable dirtied_at : int; (* virtual time the page last became dirty *)
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

(* The two full-page buffers a twin-copy read fills, copy A and copy B:
   a payload leaves them only as a copy. *)
type twin = { copy_a : bytes; copy_b : bytes }

type t = {
  device : Device.t;
  layout : Layout.t;
  twin : twin; (* every read of this store's home copies fills these *)
  cache : (int, cached) Lru.t;
  anchor : Meta_frame.anchor;
  mutable to_log_count : int;
      (* cached pages dirty and modified, i.e. [pages_to_log]'s length;
         kept up to date wherever a page's [dirty] changes *)
  mutable home_writes : int;
  mutable repairs : int;
  dirty_age : Stats.t; (* dirty-to-home-write latency per page flush *)
}

let trailer_bytes = Meta_frame.trailer_bytes
let page_magic = 0x464e5431 (* "FNT1" *)
let anchor_magic = 0x414e4331 (* "ANC1" *)

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

(* The page image is {!Meta_frame}'s: the payload, then a trailer that
   carries the payload's CRC-32. [frame_into] builds it in [out] and
   puts each sector's CRC in [crcs], hashing every byte at most once:
   the payload's CRC is the whole sectors' CRCs combined with that of
   the last sector's head (the bytes before the trailer),
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
  Meta_frame.set_trailer out ~magic:page_magic ~page ~crc:payload_crc;
  crcs.(k - 1) <- Crc32.bytes ~crc:head ~pos:n ~len:trailer_bytes out;
  head

(* ------------------------------------------------------------------ *)
(* Home I/O                                                            *)

let write_home_image device layout ~page image =
  if Bytes.length image <> full_page_bytes layout then
    invalid_arg "Fnt_store.write_home_image";
  Device.write_run device ~sector:(Layout.fnt_sector_a layout ~page) image;
  Device.write_run device ~sector:(Layout.fnt_sector_b layout ~page) image

let twin_buffers layout =
  let n = full_page_bytes layout in
  { copy_a = Bytes.create n; copy_b = Bytes.create n }

(* The twin-copy read (§5.1): copy A, then copy B, each read into its
   buffer in [tw]. Returns the payload and the copy to rewrite from it,
   if any: a lone bad copy, or B when both check but disagree (a torn
   home-write pair, or a wild write that happens to re-frame) — home
   writes go A then B, so A is never the stale one. [None] means both
   copies are bad. Each copy is checksummed at most once, and B not at
   all when its checked bytes (all but the trailer's last word, which no
   check reads) equal A's: it then checks exactly when A does. With
   [~verify:false] a good A is taken without reading B, and no repair is
   asked for. *)
let read_twin ?(verify = true) tw device layout ~page =
  let n = layout.Layout.params.Params.fnt_page_sectors in
  let read sector buf =
    match Device.read_run_into device ~sector ~count:n buf ~pos:0 with
    | () -> true
    | exception Device.Error _ -> false
  in
  let valid buf = Meta_frame.frame_valid ~magic:page_magic ~page buf in
  let payload buf = Bytes.sub buf 0 (Bytes.length buf - trailer_bytes) in
  let a = tw.copy_a and b = tw.copy_b in
  let sa = Layout.fnt_sector_a layout ~page in
  let sb = Layout.fnt_sector_b layout ~page in
  let a_read = read sa a in
  let a_ok = a_read && valid a in
  if a_ok && not verify then Some (payload a, None)
  else
    let b_read = read sb b in
    if a_read && b_read && same_range a b ~pos:0 ~len:(Bytes.length a - 4) then
      if a_ok then Some (payload a, None) else None
    else if a_ok then Some (payload a, Some sb)
    else if b_read && valid b then Some (payload b, Some sa)
    else None

let try_read_home device layout ~page =
  Option.map fst (read_twin ~verify:false (twin_buffers layout) device layout ~page)

let rewrite_copy t ~page sector payload =
  t.repairs <- t.repairs + 1;
  Device.write_run t.device ~sector (Meta_frame.frame ~magic:page_magic ~page payload)

(* A read that misses the cache repairs a bad twin on the spot. *)
let read_home t page =
  match read_twin t.twin t.device t.layout ~page with
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
  match read_twin t.twin t.device t.layout ~page with
  | Some (_, None) -> `Ok
  | Some (payload, Some sector) ->
    rewrite_copy t ~page sector payload;
    `Repaired
  | None -> `Unreadable

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let mk device layout twin anchor =
  let t =
    {
      device;
      layout;
      twin;
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
  mk device layout (twin_buffers layout) { root = None; alloc_map = map; next_uid = 1L }

let attach device layout =
  let t =
    mk device layout (twin_buffers layout)
      { root = None; alloc_map = Bitmap.create 1; next_uid = 1L }
  in
  let payload = read_home t 0 in
  match Meta_frame.decode_anchor ~magic:anchor_magic payload with
  | Some anchor ->
    let t' = mk device layout t.twin anchor in
    (* carry over a twin repair made while reading the anchor *)
    t'.repairs <- t.repairs;
    t'
  | None ->
    Fs_error.raise_ (Fs_error.Corrupt_metadata "name-table anchor does not decode")

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

(* A page the next group commit must log. *)
let to_log c = match c.dirty with Some d -> Dirty.modified d | None -> false

(* A page entering the cache: read from home (clean) or written, never
   yet framed. *)
let entry payload dirty ~at =
  {
    payload;
    dirty;
    dirtied_at = at;
    framed = Bytes.empty;
    frame = Bytes.empty;
    frame_crcs = [||];
    frame_head = -1;
  }

let insert_cache t page c =
  (* Evictions are always clean (dirty pages are pinned). *)
  ignore (Lru.add t.cache page c : (int * cached) list);
  if Option.is_some c.dirty then Lru.pin t.cache page

let read t page =
  match Lru.find t.cache page with
  | Some c -> c.payload
  | None ->
    let payload = read_home t page in
    insert_cache t page (entry payload None ~at:0);
    payload

let write t page payload =
  if Bytes.length payload <> page_bytes t then invalid_arg "Fnt_store.write: size";
  let now = Simclock.now (Device.clock t.device) in
  match Lru.peek t.cache page with
  | Some c -> (
    if not (to_log c) then t.to_log_count <- t.to_log_count + 1;
    c.payload <- payload;
    match c.dirty with
    | Some d -> Dirty.modify d
    | None ->
      c.dirty <- Some (Dirty.create ());
      c.dirtied_at <- now;
      Lru.pin t.cache page)
  | None ->
    t.to_log_count <- t.to_log_count + 1;
    insert_cache t page (entry payload (Some (Dirty.create ())) ~at:now)

(* Anchor mutations are ordinary writes of page 0. *)
let write_anchor t =
  write t 0
    (Meta_frame.encode_anchor ~magic:anchor_magic ~page_bytes:(page_bytes t) t.anchor)

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

(* Payloads are never mutated once handed over, so the payload just
   logged is itself the committed image its log copy holds. *)
let mark_logged t pages ~third =
  List.iter
    (fun page ->
      match Lru.peek t.cache page with
      | Some ({ dirty = Some d; _ } as c) ->
        if Dirty.modified d then t.to_log_count <- t.to_log_count - 1;
        Dirty.logged d ~third c.payload
      | Some _ | None -> ())
    pages

(* The image [Dirty.home] names goes home. Its frame is usually the
   page's own, built when it was logged; but the force logging a newer
   payload may already have reframed the page's buffer, so any other
   image is framed afresh. *)
let home_write t page c d =
  let image, still_dirty = Dirty.home d ~current:c.payload in
  write_home_image t.device t.layout ~page
    (if image == c.framed then c.frame
     else Meta_frame.frame ~magic:page_magic ~page image);
  let now = Simclock.now (Device.clock t.device) in
  let tr = Device.trace t.device in
  if Cedar_obs.Trace.enabled tr then
    Cedar_obs.Trace.emit tr ~at:now (Cedar_obs.Trace.Fnt_write_twice { page });
  t.home_writes <- t.home_writes + 1;
  if not still_dirty then begin
    Stats.add t.dirty_age (float_of_int (now - c.dirtied_at));
    if to_log c then t.to_log_count <- t.to_log_count - 1;
    c.dirty <- None;
    Lru.unpin t.cache page
  end

(* Home-write, lowest page id first, at most [budget] of the dirty pages
   [due] selects. *)
let flush ?(budget = max_int) t due =
  let victims = ref [] in
  Lru.iter t.cache (fun page c ->
      match c.dirty with
      | Some d when due d -> victims := (page, c, d) :: !victims
      | Some _ | None -> ());
  let victims = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !victims in
  List.iteri (fun i (page, c, d) -> if i < budget then home_write t page c d) victims;
  Int.min budget (List.length victims)

let flush_third ?budget t third = flush ?budget t (fun d -> Dirty.claims d third)
let flush_all_dirty t = flush t (fun _ -> true)

let dirty_pages t =
  let acc = ref [] in
  Lru.iter t.cache (fun page c -> if Option.is_some c.dirty then acc := page :: !acc);
  List.sort compare !acc

let pages_to_log t =
  let acc = ref [] in
  Lru.iter t.cache (fun page c -> if to_log c then acc := page :: !acc);
  List.sort compare !acc

let pages_to_log_count t = t.to_log_count

let drop_clean_cache t =
  let clean = ref [] in
  Lru.iter t.cache (fun page c -> if Option.is_none c.dirty then clean := page :: !clean);
  List.iter (Lru.remove t.cache) !clean

let flush_anchor t =
  write_anchor t;
  ignore (flush_all_dirty t : int)

let home_writes t = t.home_writes
let repairs t = t.repairs
