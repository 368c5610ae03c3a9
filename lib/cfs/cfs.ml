open Cedar_util
open Cedar_disk
open Cedar_fsbase
module Trace = Cedar_obs.Trace

type scavenge_report = {
  files_recovered : int;
  files_lost : int;
  duration_us : int;
}

let corrupt msg = Fs_error.raise_ (Fs_error.Corrupt_metadata msg)

(* ------------------------------------------------------------------ *)
(* The direct-to-disk name-table page store.

   Pages are written in place, synchronously, one verified labelled
   command per page — so a multi-page B-tree update is NOT atomic (§5.3's
   complaint). Clean pages are cached; every write goes straight to disk. *)

module Direct_store = struct
  type t = {
    device : Device.t;
    layout : Cfs_layout.t;
    cache : (int, bytes) Lru.t; (* payloads; everything here is clean *)
    anchor : Meta_frame.anchor;
    mutable page_writes : int;
  }

  let page_magic = 0x43464e54 (* "CFNT" *)
  let anchor_magic = 0x43414e31 (* "CAN1" *)

  let full_bytes layout =
    layout.Cfs_layout.params.Cfs_layout.fnt_page_sectors
    * layout.Cfs_layout.geom.Geometry.sector_bytes

  let page_bytes t = full_bytes t.layout - Meta_frame.trailer_bytes

  let fnt_labels layout ~page =
    let n = layout.Cfs_layout.params.Cfs_layout.fnt_page_sectors in
    List.init n (fun i ->
        { Label.uid = 0L; page = (page * n) + i; kind = Label.Fnt })

  let read t page =
    match Lru.find t.cache page with
    | Some payload -> payload
    | None -> (
      let sector = Cfs_layout.fnt_sector t.layout ~page in
      let image =
        try
          Device.verified_read_run t.device ~sector ~expect:(fnt_labels t.layout ~page)
        with Device.Error { sector; kind = _ } ->
          corrupt (Printf.sprintf "name-table sector %d unreadable" sector)
      in
      match Meta_frame.unframe ~magic:page_magic ~page image with
      | Some payload ->
        ignore (Lru.add t.cache page payload : (int * bytes) list);
        payload
      | None ->
        raise
          (Cedar_btree.Btree.Corrupt
             (Printf.sprintf "name-table page %d fails its checksum" page)))

  (* Synchronous in-place write: the non-atomicity is the point. *)
  let write t page payload =
    let sector = Cfs_layout.fnt_sector t.layout ~page in
    Device.verified_write_run t.device ~sector
      ~expect:(fnt_labels t.layout ~page)
      (Meta_frame.frame ~magic:page_magic ~page payload);
    t.page_writes <- t.page_writes + 1;
    ignore (Lru.add t.cache page payload : (int * bytes) list)

  let write_anchor t =
    write t 0
      (Meta_frame.encode_anchor ~magic:anchor_magic ~page_bytes:(page_bytes t) t.anchor)

  let alloc t =
    let map = t.anchor.alloc_map in
    let rec go i =
      if i >= Bitmap.length map then corrupt "CFS name table out of pages"
      else if not (Bitmap.get map i) then i
      else go (i + 1)
    in
    let page = go 1 in
    Bitmap.set map page;
    write_anchor t;
    page

  let free t page =
    if page = 0 || not (Bitmap.get t.anchor.alloc_map page) then
      invalid_arg "Direct_store.free";
    Bitmap.clear t.anchor.alloc_map page;
    Lru.remove t.cache page;
    write_anchor t

  let get_root t = t.anchor.root

  let set_root t r =
    t.anchor.root <- r;
    write_anchor t

  let mk device layout anchor =
    {
      device;
      layout;
      cache = Lru.create ~capacity:layout.Cfs_layout.params.Cfs_layout.cache_pages;
      anchor;
      page_writes = 0;
    }

  let create_fresh device layout =
    let map = Bitmap.create layout.Cfs_layout.params.Cfs_layout.fnt_pages in
    Bitmap.set map 0;
    mk device layout { root = None; alloc_map = map; next_uid = 1L }

  let attach device layout =
    let t = mk device layout { root = None; alloc_map = Bitmap.create 1; next_uid = 1L } in
    let payload = read t 0 in
    match Meta_frame.decode_anchor ~magic:anchor_magic payload with
    | Some anchor -> mk device layout anchor
    | None -> corrupt "CFS name-table anchor does not decode"
end

module B = Cedar_btree.Btree.Make (Direct_store)
module Nt = Name_table.Make (B)

(* ------------------------------------------------------------------ *)
(* Name-table values: Table 1's CFS column — uid, keep, and the header
   page 0 disk address. Everything else lives in the header. *)

module Nt_value = struct
  type t = { uid : int64; keep : int; header_sector : int }

  (* The leading tag byte 0 is what every stored value carries. *)
  let encode ~uid ~keep ~header_sector =
    let w = Bytebuf.Writer.create ~initial:16 () in
    Bytebuf.Writer.u8 w 0;
    Bytebuf.Writer.u64 w uid;
    Bytebuf.Writer.u16 w keep;
    Bytebuf.Writer.u32 w header_sector;
    Bytes.to_string (Bytebuf.Writer.contents w)

  let decode s =
    let r = Bytebuf.Reader.of_bytes (Bytes.unsafe_of_string s) in
    match Bytebuf.Reader.u8 r with
    | 0 ->
      let uid = Bytebuf.Reader.u64 r in
      let keep = Bytebuf.Reader.u16 r in
      let header_sector = Bytebuf.Reader.u32 r in
      { uid; keep; header_sector }
    | n -> raise (Bytebuf.Decode_error (Printf.sprintf "bad CFS entry kind %d" n))
end

(* ------------------------------------------------------------------ *)

type t = {
  device : Device.t;
  clock : Simclock.t;
  layout : Cfs_layout.t;
  store : Direct_store.t;
  tree : B.t;
  vam : Bitmap.t; (* set = free; a hint with no invariants (§2) *)
  mutable hint : int;
  opened : (string, File_record.t * int) Hashtbl.t; (* key -> header, sector *)
  mutable next_uid : int64;
  mutable live : bool;
  ops_c : Cedar_obs.Metrics.counter;
}

let layout t = t.layout
let free_sector_hints t = Bitmap.count t.vam
let drop_open_cache t = Hashtbl.reset t.opened

let sector_bytes t = t.layout.Cfs_layout.geom.Geometry.sector_bytes
let cpu t us = Simclock.advance t.clock us

let op_cpu t =
  Cedar_obs.Metrics.inc t.ops_c;
  cpu t t.layout.Cfs_layout.params.Cfs_layout.cpu_op_us

let require_live t = if not t.live then Fs_error.raise_ Fs_error.Not_booted

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- Int64.add uid 1L;
  uid

(* ------------------------------------------------------------------ *)
(* Boot page                                                           *)

let boot_magic = 0x43425431 (* "CBT1" *)

let write_boot device layout ~clean =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w boot_magic;
  Bytebuf.Writer.bool w clean;
  Bytebuf.Writer.u16 w layout.Cfs_layout.params.Cfs_layout.fnt_page_sectors;
  Bytebuf.Writer.u32 w layout.Cfs_layout.params.Cfs_layout.fnt_pages;
  Meta_frame.write_mirrored device ~sector:0
    (Bytebuf.Writer.seal w ~size:layout.Cfs_layout.geom.Geometry.sector_bytes)

let read_boot device =
  Meta_frame.read_mirrored device ~sector:0 (fun b ->
      Bytebuf.Reader.unseal ~magic:boot_magic b (fun r ->
          let clean = Bytebuf.Reader.bool r in
          let fnt_page_sectors = Bytebuf.Reader.u16 r in
          let fnt_pages = Bytebuf.Reader.u32 r in
          (clean, fnt_page_sectors, fnt_pages)))

(* ------------------------------------------------------------------ *)
(* VAM persistence (hints; loaded only after a clean shutdown)         *)

let vam_magic = 0x4356414d (* "CVAM" *)

let save_vam t =
  let sb = sector_bytes t in
  let body = Bitmap.to_bytes t.vam in
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w vam_magic;
  Bytebuf.Writer.u32 w (Bitmap.length t.vam);
  Bytebuf.Writer.u32 w (Crc32.bytes body);
  Device.write t.device t.layout.Cfs_layout.vam_start (Bytebuf.Writer.to_sector w ~size:sb);
  let body_sectors = t.layout.Cfs_layout.vam_sectors - 1 in
  let padded = Bytes.make (body_sectors * sb) '\000' in
  Bytes.blit body 0 padded 0 (Bytes.length body);
  Device.write_run t.device ~sector:(t.layout.Cfs_layout.vam_start + 1) padded

let load_vam device layout =
  let bits = Geometry.total_sectors layout.Cfs_layout.geom in
  match Device.read device layout.Cfs_layout.vam_start with
  | exception Device.Error _ -> None
  | header -> (
    let r = Bytebuf.Reader.of_bytes header in
    match
      let m = Bytebuf.Reader.u32 r in
      let saved = Bytebuf.Reader.u32 r in
      let crc = Bytebuf.Reader.u32 r in
      (m, saved, crc)
    with
    | exception Bytebuf.Decode_error _ -> None
    | m, saved, crc ->
      if m <> vam_magic || saved <> bits then None
      else (
        match
          Device.read_run device ~sector:(layout.Cfs_layout.vam_start + 1)
            ~count:(layout.Cfs_layout.vam_sectors - 1)
        with
        | exception Device.Error _ -> None
        | body ->
          let body = Bytes.sub body 0 ((bits + 7) / 8) in
          if Crc32.bytes body <> crc then None else Some (Bitmap.of_bytes ~bits body)))

(* ------------------------------------------------------------------ *)
(* Format                                                              *)

let format device params =
  let geom = Device.geometry device in
  let layout = Cfs_layout.compute geom params in
  (* Label the whole volume: everything free except boot, VAM area and
     the name-table region. *)
  let total = Geometry.total_sectors geom in
  let spt = geom.Geometry.sectors_per_track in
  let fnt_lo = layout.Cfs_layout.fnt_start in
  let fnt_hi = fnt_lo + layout.Cfs_layout.fnt_sectors in
  let label_of s =
    if s < layout.Cfs_layout.data_lo then { Label.uid = 0L; page = s; kind = Label.Boot }
    else if s >= fnt_lo && s < fnt_hi then
      { Label.uid = 0L; page = s - fnt_lo; kind = Label.Fnt }
    else Label.free
  in
  let s = ref 0 in
  while !s < total do
    let n = min spt (total - !s) in
    Device.write_labels device ~sector:!s (List.init n (fun i -> label_of (!s + i)));
    s := !s + n
  done;
  let store = Direct_store.create_fresh device layout in
  Direct_store.write_anchor store;
  (* Empty VAM: all data sectors free. *)
  let vam = Bitmap.create total in
  for s = 0 to total - 1 do
    if Cfs_layout.is_data_sector layout s then Bitmap.set vam s
  done;
  let tmp =
    {
      device;
      clock = Device.clock device;
      layout;
      store;
      tree = B.attach store;
      vam;
      hint = layout.Cfs_layout.data_lo;
      opened = Hashtbl.create 8;
      next_uid = 1L;
      live = true;
      ops_c = Cedar_obs.Metrics.counter (Device.metrics device) "cfs.ops";
    }
  in
  save_vam tmp;
  write_boot device layout ~clean:true

(* ------------------------------------------------------------------ *)
(* Allocation: first-fit with a rotating hint over one big pool — the
   fragmenting allocator §5.6 replaced. Candidates are verified against
   the labels before being claimed (the VAM is only a hint). *)

let verify_free t ~pos ~len =
  let ok = ref true in
  Device.scan_labels t.device ~from:pos ~count:len (fun s l ->
      match l with
      | Some l when Label.equal l Label.free -> ()
      | Some _ | None ->
        ok := false;
        (* correct the stale hint *)
        if Bitmap.get t.vam s then Bitmap.clear t.vam s);
  !ok

let find_free_run t len =
  let lo = t.layout.Cfs_layout.data_lo and hi = t.layout.Cfs_layout.data_hi in
  match Bitmap.find_run_set t.vam ~from:t.hint ~upto:hi ~len with
  | Some pos -> Some pos
  | None -> Bitmap.find_run_set t.vam ~from:lo ~upto:(min hi (t.hint + len)) ~len

(* Allocate [len] sectors as one verified run; retries when the hint was
   stale. *)
let rec alloc_verified_run t len tries =
  if tries > 16 then Fs_error.raise_ Fs_error.Volume_full
  else
    match find_free_run t len with
    | None -> Fs_error.raise_ Fs_error.Volume_full
    | Some pos ->
      if verify_free t ~pos ~len then begin
        Bitmap.clear_run t.vam ~pos ~len;
        t.hint <- pos + len;
        pos
      end
      else alloc_verified_run t len (tries + 1)

(* Allocate the header (2 contiguous) plus [n] data sectors, preferring
   one contiguous piece, falling back to fragments. *)
let allocate_file t ~data_pages =
  let total = Header.sectors + data_pages in
  match find_free_run t total with
  | Some pos when verify_free t ~pos ~len:total ->
    Bitmap.clear_run t.vam ~pos ~len:total;
    t.hint <- pos + total;
    (pos, if data_pages = 0 then [] else [ { Run_table.start = pos + 2; len = data_pages } ])
  | Some _ | None ->
    let header = alloc_verified_run t Header.sectors 0 in
    let rec gather acc remaining chunk =
      if remaining = 0 then List.rev acc
      else if List.length acc > 24 then Fs_error.raise_ (Fs_error.Too_fragmented "")
      else
        let want = min remaining chunk in
        match find_free_run t want with
        | Some pos when verify_free t ~pos ~len:want ->
          Bitmap.clear_run t.vam ~pos ~len:want;
          t.hint <- pos + want;
          gather ({ Run_table.start = pos; len = want } :: acc) (remaining - want) chunk
        | Some _ -> gather acc remaining chunk
        | None ->
          if chunk = 1 then Fs_error.raise_ Fs_error.Volume_full
          else gather acc remaining (max 1 (chunk / 2))
    in
    (header, gather [] data_pages data_pages)

(* ------------------------------------------------------------------ *)
(* Header I/O                                                          *)

let write_header t (h : File_record.t) ~sector =
  Device.verified_write_run t.device ~sector ~expect:(Header.labels h.File_record.uid)
    (File_record.encode Header.format h ~sector_bytes:(sector_bytes t))

let read_header t ~uid ~sector =
  match Device.verified_read_run t.device ~sector ~expect:(Header.labels uid) with
  | image -> (
    match File_record.decode Header.format image with
    | Some h -> h
    | None -> corrupt (Printf.sprintf "header at sector %d fails its checksum" sector))
  | exception Device.Error { sector; kind = Device.Label_mismatch _ } ->
    corrupt (Printf.sprintf "label mismatch reading header at %d" sector)
  | exception Device.Error { sector; kind = Device.Damaged } ->
    Fs_error.raise_ (Fs_error.Damaged_data { name = "<header>"; sector })

(* ------------------------------------------------------------------ *)
(* Name-table access                                                   *)

let wrap_tree f =
  try f () with Cedar_btree.Btree.Corrupt m -> corrupt ("name table: " ^ m)

let newest t name = wrap_tree (fun () -> Nt.newest t.tree name)
let newest_exn t name = wrap_tree (fun () -> Nt.newest_exn t.tree name)

(* The header of the version stored under [key], cached per open file. *)
let cached_header t key raw =
  match Hashtbl.find_opt t.opened key with
  | Some hs -> hs
  | None ->
    let { Nt_value.uid; header_sector; _ } = Nt_value.decode raw in
    let h = read_header t ~uid ~sector:header_sector in
    Hashtbl.replace t.opened key (h, header_sector);
    (h, header_sector)

(* Open = name-table lookup + header read. *)
let open_header t name =
  let key, version, raw = newest_exn t name in
  let h, sector = cached_header t key raw in
  (key, version, h, sector)

let info_of name version (h : File_record.t) =
  { Fs_ops.name; version; byte_size = h.File_record.byte_size; uid = h.File_record.uid }

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let versions t ~name =
  require_live t;
  List.rev_map (fun (v, _, _) -> v) (wrap_tree (fun () -> Nt.versions t.tree ~name))

let free_labels_of t (h : File_record.t) ~header_sector =
  (* One command for the header pair, one per data run. *)
  Device.write_labels t.device ~sector:header_sector [ Label.free; Label.free ];
  Bitmap.set_run t.vam ~pos:header_sector ~len:Header.sectors;
  List.iter
    (fun r ->
      Device.write_labels t.device ~sector:r.Run_table.start
        (List.init r.Run_table.len (fun _ -> Label.free));
      Bitmap.set_run t.vam ~pos:r.Run_table.start ~len:r.Run_table.len)
    (Run_table.runs h.File_record.runs)

let delete_version_unchecked t name version =
  let key = Fname.key ~name ~version in
  match wrap_tree (fun () -> B.find t.tree key) with
  | None -> Fs_error.raise_ (Fs_error.No_such_file (Printf.sprintf "%s!%d" name version))
  | Some v ->
    let h, header_sector = cached_header t key v in
    free_labels_of t h ~header_sector;
    ignore (wrap_tree (fun () -> B.delete t.tree key) : bool);
    Hashtbl.remove t.opened key

let enforce_keep t name newest_version keep =
  if keep > 0 then
    List.iter
      (fun v -> if v <= newest_version - keep then delete_version_unchecked t name v)
      (versions t ~name)

let create_common t ~name ~keep ~kind data =
  require_live t;
  Name_table.validate_name name;
  let sb = sector_bytes t in
  let byte_size = Bytes.length data in
  let data_pages = max 1 ((byte_size + sb - 1) / sb) in
  let version = match newest t name with Some (_, v, _) -> v + 1 | None -> 1 in
  let uid = fresh_uid t in
  (* 1: find and verify candidate pages (allocate_file reads labels). *)
  let header_sector, data_runs = allocate_file t ~data_pages in
  let runs = Run_table.of_runs data_runs in
  let created = Simclock.now t.clock in
  let h = { File_record.uid; name; version; keep; byte_size; created; runs; kind } in
  (* 2: claim the header labels. *)
  Device.write_labels t.device ~sector:header_sector (Header.labels uid);
  (* 3: claim the data labels, one command per run. *)
  List.iteri
    (fun i r ->
      let base =
        List.fold_left
          (fun acc (j, r') -> if j < i then acc + r'.Run_table.len else acc)
          0
          (List.mapi (fun j r' -> (j, r')) data_runs)
      in
      Device.write_labels t.device ~sector:r.Run_table.start
        (List.init r.Run_table.len (fun k ->
             { Label.uid; page = base + k; kind = Label.Data })))
    data_runs;
  (* 4: write the header (size not yet final, as in the paper's script). *)
  write_header t { h with File_record.byte_size = 0 } ~sector:header_sector;
  (* 5: write the data through the labels. *)
  let padded = Bytes.make (data_pages * sb) '\000' in
  Bytes.blit data 0 padded 0 byte_size;
  let off = ref 0 in
  List.iter
    (fun r ->
      let labels =
        List.init r.Run_table.len (fun k ->
            { Label.uid; page = (!off / sb) + k; kind = Label.Data })
      in
      Device.verified_write_run t.device ~sector:r.Run_table.start ~expect:labels
        (Bytes.sub padded !off (r.Run_table.len * sb));
      off := !off + (r.Run_table.len * sb))
    data_runs;
  (* 6: update the name table (synchronous page writes). *)
  wrap_tree (fun () ->
      B.insert t.tree ~key:(Fname.key ~name ~version)
        ~value:(Nt_value.encode ~uid ~keep ~header_sector));
  (* 7: rewrite the header with the final byte count. *)
  write_header t h ~sector:header_sector;
  Hashtbl.replace t.opened (Fname.key ~name ~version) (h, header_sector);
  enforce_keep t name version keep;
  op_cpu t;
  cpu t (data_pages * t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us);
  info_of name version h

let create t ~name ?(keep = 2) data =
  Trace.span (Device.trace t.device) t.clock ~op:"create" ~name (fun () ->
      create_common t ~name ~keep ~kind:Entry.Local data)

let import_cached t ~name ~server data =
  Trace.span (Device.trace t.device) t.clock ~op:"import" ~name (fun () ->
      create_common t ~name ~keep:2
        ~kind:(Entry.Cached { server; last_used = Simclock.now t.clock })
        data)

(* CFS keeps the last-used time in the header: every update reads and
   rewrites the header pair — the traffic FSD's group commit removes. *)
let touch_cached t ~name =
  require_live t;
  let key, _, h, header_sector = open_header t name in
  match h.File_record.kind with
  | Entry.Cached { server; _ } ->
    let last_used = Simclock.now t.clock in
    let h' = { h with File_record.kind = Entry.Cached { server; last_used } } in
    write_header t h' ~sector:header_sector;
    Hashtbl.replace t.opened key (h', header_sector);
    op_cpu t
  | Entry.Local -> corrupt (name ^ " is not a cached remote file")

let last_used t ~name =
  require_live t;
  let _, _, h, _ = open_header t name in
  op_cpu t;
  match h.File_record.kind with
  | Entry.Cached { last_used; _ } -> Some last_used
  | Entry.Local -> None

let open_stat t ~name =
  Trace.span (Device.trace t.device) t.clock ~op:"open" ~name @@ fun () ->
  require_live t;
  let _, version, h, _ = open_header t name in
  op_cpu t;
  info_of name version h

let exists t ~name =
  require_live t;
  op_cpu t;
  newest t name <> None

let read_runs t (h : File_record.t) buf =
  let sb = sector_bytes t in
  let off = ref 0 in
  List.iter
    (fun r ->
      let uid = h.File_record.uid in
      let labels =
        List.init r.Run_table.len (fun k ->
            { Label.uid; page = (!off / sb) + k; kind = Label.Data })
      in
      let d = Device.verified_read_run t.device ~sector:r.Run_table.start ~expect:labels in
      Bytes.blit d 0 buf !off (r.Run_table.len * sb);
      off := !off + (r.Run_table.len * sb))
    (Run_table.runs h.File_record.runs)

let read_all t ~name =
  Trace.span (Device.trace t.device) t.clock ~op:"read_all" ~name @@ fun () ->
  require_live t;
  let _, _, h, _ = open_header t name in
  let sb = sector_bytes t in
  let pages = Run_table.pages h.File_record.runs in
  Option.iter corrupt
    (Run_table.size_mismatch h.File_record.runs ~sector_bytes:sb ~key:name
       ~byte_size:h.File_record.byte_size);
  let buf = Bytes.create (pages * sb) in
  (try read_runs t h buf with
  | Device.Error { sector; kind = Device.Damaged } ->
    Fs_error.raise_ (Fs_error.Damaged_data { name; sector })
  | Device.Error { sector; kind = Device.Label_mismatch _ } ->
    corrupt (Printf.sprintf "stale run table for %s at sector %d" name sector));
  op_cpu t;
  cpu t (pages * t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us);
  Bytes.sub buf 0 h.File_record.byte_size

let read_page t ~name ~page =
  Trace.span (Device.trace t.device) t.clock ~op:"read_page" ~name @@ fun () ->
  require_live t;
  let _, _, h, _ = open_header t name in
  if page < 0 || page >= Run_table.pages h.File_record.runs then
    Fs_error.raise_ (Fs_error.Bad_page { name; page });
  let sector = Run_table.sector_of_page h.File_record.runs page in
  let expect = { Label.uid = h.File_record.uid; page; kind = Label.Data } in
  op_cpu t;
  match Device.verified_read t.device sector ~expect with
  | b -> b
  | exception Device.Error { sector; kind = Device.Damaged } ->
    Fs_error.raise_ (Fs_error.Damaged_data { name; sector })
  | exception Device.Error { sector; kind = Device.Label_mismatch _ } ->
    corrupt (Printf.sprintf "stale run table for %s at sector %d" name sector)

let delete t ~name =
  Trace.span (Device.trace t.device) t.clock ~op:"delete" ~name @@ fun () ->
  require_live t;
  let key, version, raw = newest_exn t name in
  let pages =
    match cached_header t key raw with
    | h, _ -> Run_table.pages h.File_record.runs
    | exception Fs_error.Fs_error _ -> 0
  in
  delete_version_unchecked t name version;
  op_cpu t;
  cpu t (pages * t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us / 2)

let list t ~prefix =
  Trace.span (Device.trace t.device) t.clock ~op:"list" ~name:prefix @@ fun () ->
  require_live t;
  (* The name table has only names and header addresses; properties such
     as the byte count require reading each header (Table 3's 146 I/Os
     for 100 files). *)
  let acc = ref [] in
  wrap_tree (fun () ->
      Nt.iter_newest t.tree ~prefix
        ~on_key:(fun () ->
          cpu t (t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us / 2))
        (fun n ver v ->
          let h, _ = cached_header t (Fname.key ~name:n ~version:ver) v in
          acc := info_of n ver h :: !acc));
  op_cpu t;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let mk_live device layout store vam =
  let m = Device.metrics device in
  let t =
    {
      device;
      clock = Device.clock device;
      layout;
      store;
      tree = B.attach store;
      vam;
      hint = layout.Cfs_layout.data_lo;
      opened = Hashtbl.create 64;
      next_uid = Int64.add store.Direct_store.anchor.Meta_frame.next_uid 1_000_000L;
      live = true;
      ops_c = Cedar_obs.Metrics.counter m "cfs.ops";
    }
  in
  Cedar_obs.Metrics.gauge m "cfs.nt_page_writes" (fun () ->
      store.Direct_store.page_writes);
  Cedar_obs.Metrics.gauge m "cfs.open_headers" (fun () -> Hashtbl.length t.opened);
  t

let boot device =
  match read_boot device with
  | None -> corrupt "CFS boot pages unreadable"
  | Some (clean, fnt_page_sectors, fnt_pages) ->
    if not clean then `Needs_scavenge
    else begin
      let params =
        { (Cfs_layout.params_for_geometry (Device.geometry device)) with
          Cfs_layout.fnt_page_sectors;
          fnt_pages;
        }
      in
      let layout = Cfs_layout.compute (Device.geometry device) params in
      match load_vam device layout with
      | None -> `Needs_scavenge
      | Some vam ->
        let store = Direct_store.attach device layout in
        (* Mark unclean until the next controlled shutdown. *)
        write_boot device layout ~clean:false;
        `Ok (mk_live device layout store vam)
    end

let shutdown t =
  require_live t;
  t.store.Direct_store.anchor.Meta_frame.next_uid <- t.next_uid;
  Direct_store.write_anchor t.store;
  save_vam t;
  write_boot t.device t.layout ~clean:true;
  t.live <- false

let scavenge device =
  let clock = Device.clock device in
  let t0 = Simclock.now clock in
  let geom = Device.geometry device in
  let params =
    match read_boot device with
    | Some (_, fnt_page_sectors, fnt_pages) ->
      { (Cfs_layout.params_for_geometry geom) with
        Cfs_layout.fnt_page_sectors;
        fnt_pages;
      }
    | None -> Cfs_layout.params_for_geometry geom
  in
  let layout = Cfs_layout.compute geom params in
  let total = Geometry.total_sectors geom in
  (* Pass 1: read every label on the volume. A header whose page-0
     sector is unreadable is recognisable by its orphaned page-1 label. *)
  let headers = ref [] in
  let orphan_uids = Hashtbl.create 64 in
  let vam = Bitmap.create total in
  Device.scan_labels device ~from:0 ~count:total (fun s l ->
      Simclock.advance clock 10;
      match l with
      | Some { Label.kind = Label.Header; page = 0; uid } -> headers := (s, uid) :: !headers
      | Some { Label.kind = Label.Header; page = 1; uid }
      | Some { Label.kind = Label.Data; uid; _ } ->
        Hashtbl.replace orphan_uids uid ()
      | Some l when Label.equal l Label.free ->
        if Cfs_layout.is_data_sector layout s then Bitmap.set vam s
      | Some _ | None -> ());
  (* Pass 2: rebuild the name table from the headers. *)
  let store = Direct_store.create_fresh device layout in
  Direct_store.write_anchor store;
  let t = mk_live device layout store vam in
  let recovered = ref 0 and lost = ref 0 and max_uid = ref 0L in
  List.iter
    (fun (sector, uid) ->
      match read_header t ~uid ~sector with
      | exception Fs_error.Fs_error _ -> incr lost
      | h ->
        wrap_tree (fun () ->
            B.insert t.tree
              ~key:(Fname.key ~name:h.File_record.name ~version:h.File_record.version)
              ~value:
                (Nt_value.encode ~uid:h.File_record.uid ~keep:h.File_record.keep
                   ~header_sector:sector));
        if Int64.compare h.File_record.uid !max_uid > 0 then
          max_uid := h.File_record.uid;
        Hashtbl.remove orphan_uids h.File_record.uid;
        incr recovered)
    (List.rev !headers);
  (* Uids with surviving header or data labels but no readable header:
     those files are lost (only their pages remain). *)
  List.iter (fun (_, uid) -> Hashtbl.remove orphan_uids uid) !headers;
  lost := !lost + Hashtbl.length orphan_uids;
  t.next_uid <- Int64.add !max_uid 1L;
  t.store.Direct_store.anchor.Meta_frame.next_uid <- t.next_uid;
  Direct_store.write_anchor t.store;
  save_vam t;
  write_boot device layout ~clean:false;
  ( t,
    {
      files_recovered = !recovered;
      files_lost = !lost;
      duration_us = Simclock.now clock - t0;
    } )

(* ------------------------------------------------------------------ *)
(* Check & Ops                                                         *)

let check t =
  match wrap_tree (fun () -> B.check t.tree) with
  | Error m -> Error ("name table: " ^ m)
  | Ok () -> (
    let bad = ref [] in
    (* No sector may belong to two files: a header pair or a data page
       claimed twice is a run table gone stale. *)
    let claimed = Hashtbl.create 256 in
    let claim k s =
      if Hashtbl.mem claimed s then
        bad := Printf.sprintf "%s: sector %d claimed twice" k s :: !bad
      else Hashtbl.replace claimed s ()
    in
    (try
       wrap_tree (fun () ->
           B.iter t.tree (fun k v ->
               let { Nt_value.uid; header_sector; _ } = Nt_value.decode v in
               match read_header t ~uid ~sector:header_sector with
               | exception Fs_error.Fs_error e ->
                 bad := (k ^ ": " ^ Fs_error.to_string e) :: !bad
               | h ->
                 if h.File_record.uid <> uid then
                   bad := (k ^ ": header uid mismatch") :: !bad;
                 claim k header_sector;
                 claim k (header_sector + 1);
                 Run_table.iter_sectors h.File_record.runs (claim k);
                 Option.iter
                   (fun m -> bad := m :: !bad)
                   (Run_table.size_mismatch h.File_record.runs
                      ~sector_bytes:(sector_bytes t) ~key:k
                      ~byte_size:h.File_record.byte_size);
                 (match Fname.parse k with
                 | Some (n, ver) ->
                   if h.File_record.name <> n || h.File_record.version <> ver then
                     bad := (k ^ ": header name mismatch") :: !bad
                 | None -> bad := (k ^ ": unparseable key") :: !bad)))
     with Fs_error.Fs_error e -> bad := Fs_error.to_string e :: !bad);
    match !bad with [] -> Ok () | problems -> Error (String.concat "; " problems))

let ops t =
  {
    Fs_ops.label = "CFS";
    create = (fun ~name ~data -> create t ~name data);
    open_stat = (fun ~name -> open_stat t ~name);
    read_all = (fun ~name -> read_all t ~name);
    read_page = (fun ~name ~page -> read_page t ~name ~page);
    delete = (fun ~name -> delete t ~name);
    list = (fun ~prefix -> list t ~prefix);
    force = (fun () -> ());
    device = t.device;
    clock = t.clock;
  }
