open Cedar_util
open Cedar_disk
open Cedar_fsbase

type unit_kind = Fnt_page of int | Leader_page of int | Vam_chunk of int
type logged_unit = { kind : unit_kind; image : bytes }

type stats = {
  mutable records : int;
  mutable data_sectors : int;
  mutable total_sectors : int;
  mutable third_entries : int;
  record_sizes : Stats.t;
}

type t = {
  device : Device.t;
  layout : Layout.t;
  boot_count : int;
  shard : int;
  on_enter_third : int -> unit;
  mutable write_off : int; (* offset within the body, in sectors *)
  mutable next_record_no : int64;
  mutable current_third : int;
  third_first : (int * int64) option array; (* first record per third *)
  stats : stats;
  mutable buf : bytes;
      (* the record being assembled; grown on demand and reused by every
         append, since the device copies a write at issue *)
}

let magic_hdr = 0x434c4831 (* "CLH1" *)
let magic_end = 0x434c4531 (* "CLE1" *)
let magic_ptr = 0x434c5031 (* "CLP1" *)
let special = 0xa5c35a3c96e17896L

let sector_bytes layout = layout.Layout.geom.Geometry.sector_bytes
let body_start layout = layout.Layout.log_start + 3
let third_sectors layout = (layout.Layout.log_sectors - 3) / 3
let body_sectors layout = 3 * third_sectors layout

let unit_sectors layout = function
  | Fnt_page _ -> layout.Layout.params.Params.fnt_page_sectors
  | Leader_page _ | Vam_chunk _ -> 1

let data_sectors_of layout units =
  List.fold_left (fun acc u -> acc + unit_sectors layout u.kind) 0 units

(* The record layout (§5.3): header, blank, header', data, end, data',
   end' — copies separated by at least two sectors, so any one or two
   consecutive failures leave one of each. *)
let record_total_sectors layout units =
  Params.log_record_sectors (data_sectors_of layout units)

let max_data_sectors_hard layout =
  let sb = sector_bytes layout in
  (* End page holds a u32 CRC per data sector after 26 bytes of framing;
     the header holds 7 bytes per unit after 32. Leaders are the worst
     case (one unit per sector). *)
  Int.min ((sb - 26 - 4) / 4) ((sb - 32 - 4) / 7)

(* ------------------------------------------------------------------ *)
(* Sector codecs                                                       *)

let kind_tag = function Fnt_page _ -> 0 | Leader_page _ -> 1 | Vam_chunk _ -> 2
let kind_id = function Fnt_page id -> id | Leader_page s -> s | Vam_chunk i -> i

let encode_header t units =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic_hdr;
  Bytebuf.Writer.u64 w special;
  Bytebuf.Writer.u64 w t.next_record_no;
  Bytebuf.Writer.u32 w t.boot_count;
  Bytebuf.Writer.u8 w t.shard;
  Bytebuf.Writer.u8 w 0;
  Bytebuf.Writer.u16 w (List.length units);
  List.iter
    (fun u ->
      Bytebuf.Writer.u8 w (kind_tag u.kind);
      Bytebuf.Writer.u32 w (kind_id u.kind);
      Bytebuf.Writer.u16 w (unit_sectors t.layout u.kind))
    units;
  Bytebuf.Writer.u16 w (data_sectors_of t.layout units);
  Bytebuf.Writer.seal w ~size:(sector_bytes t.layout)

type header = {
  h_record_no : int64;
  h_boot_count : int;
  h_shard : int;
  h_units : (unit_kind * int) list; (* kind, sectors *)
  h_data_sectors : int;
}

(* Header and end pages carry the special word after their magic. *)
let expect_special r =
  if Bytebuf.Reader.u64 r <> special then raise (Bytebuf.Decode_error "no special word")

let decode_header layout b =
  Bytebuf.Reader.unseal ~magic:magic_hdr b (fun r ->
      expect_special r;
      let h_record_no = Bytebuf.Reader.u64 r in
      let h_boot_count = Bytebuf.Reader.u32 r in
      let h_shard = Bytebuf.Reader.u8 r in
      (* The flag byte once selected a second record layout, since
         retired: a header that sets it is not one of this layout's. *)
      if Bytebuf.Reader.u8 r <> 0 then raise (Bytebuf.Decode_error "flag byte set");
      let nunits = Bytebuf.Reader.u16 r in
      let h_units =
        List.init nunits (fun _ ->
            let tag = Bytebuf.Reader.u8 r in
            let id = Bytebuf.Reader.u32 r in
            let n = Bytebuf.Reader.u16 r in
            let kind =
              match tag with
              | 0 -> Fnt_page id
              | 1 -> Leader_page id
              | 2 -> Vam_chunk id
              | _ -> raise (Bytebuf.Decode_error "bad unit tag")
            in
            (kind, n))
      in
      let h_data_sectors = Bytebuf.Reader.u16 r in
      if
        h_data_sectors <> List.fold_left (fun a (_, n) -> a + n) 0 h_units
        || List.exists (fun (k, n) -> n <> unit_sectors layout k) h_units
      then raise (Bytebuf.Decode_error "unit sizes disagree with the layout");
      { h_record_no; h_boot_count; h_shard; h_units; h_data_sectors })

(* The end page lists the CRC-32 of each of the record's [n] data
   sectors, hashed where [append] assembled them: in [buf] from [pos]. *)
let encode_end layout ~record_no ~n buf ~pos =
  let sb = sector_bytes layout in
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic_end;
  Bytebuf.Writer.u64 w special;
  Bytebuf.Writer.u64 w record_no;
  Bytebuf.Writer.u16 w n;
  for i = 0 to n - 1 do
    Bytebuf.Writer.u32 w (Crc32.bytes ~pos:(pos + (i * sb)) ~len:sb buf)
  done;
  Bytebuf.Writer.seal w ~size:sb

let decode_end b =
  Bytebuf.Reader.unseal ~magic:magic_end b (fun r ->
      expect_special r;
      let record_no = Bytebuf.Reader.u64 r in
      let n = Bytebuf.Reader.u16 r in
      (record_no, Array.init n (fun _ -> Bytebuf.Reader.u32 r)))

let encode_pointer layout ~offset ~record_no ~boot_count =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w magic_ptr;
  Bytebuf.Writer.u32 w offset;
  Bytebuf.Writer.u64 w record_no;
  Bytebuf.Writer.u32 w boot_count;
  Bytebuf.Writer.seal w ~size:(sector_bytes layout)

let decode_pointer b =
  Bytebuf.Reader.unseal ~magic:magic_ptr b (fun r ->
      let offset = Bytebuf.Reader.u32 r in
      let record_no = Bytebuf.Reader.u64 r in
      let boot_count = Bytebuf.Reader.u32 r in
      (offset, record_no, boot_count))

(* Pointer page in sector 0 of the log region, replicated in sector 2,
   with the mandatory blank between. *)
let write_pointer device layout ~offset ~record_no ~boot_count =
  Meta_frame.write_mirrored device ~sector:layout.Layout.log_start
    (encode_pointer layout ~offset ~record_no ~boot_count)

let read_pointer device layout =
  Meta_frame.read_mirrored device ~sector:layout.Layout.log_start decode_pointer

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let format device layout =
  write_pointer device layout ~offset:0 ~record_no:1L ~boot_count:0

let mk_stats () =
  {
    records = 0;
    data_sectors = 0;
    total_sectors = 0;
    third_entries = 0;
    record_sizes = Stats.create ();
  }

let attach ?(shard = 0) device layout ~boot_count ~next_record_no ~write_off
    ~on_enter_third =
  if shard < 0 || shard > 255 then invalid_arg "Log.attach: shard out of u8 range";
  let third = third_sectors layout in
  let write_off = if write_off >= body_sectors layout then 0 else write_off in
  write_pointer device layout ~offset:write_off ~record_no:next_record_no ~boot_count;
  let stats = mk_stats () in
  let m = Device.metrics device in
  Cedar_obs.Metrics.gauge m "log.records" (fun () -> stats.records);
  Cedar_obs.Metrics.gauge m "log.data_sectors" (fun () -> stats.data_sectors);
  Cedar_obs.Metrics.gauge m "log.total_sectors" (fun () -> stats.total_sectors);
  Cedar_obs.Metrics.gauge m "log.third_entries" (fun () -> stats.third_entries);
  Cedar_obs.Metrics.register_dist m "log.record_sectors" stats.record_sizes;
  {
    device;
    layout;
    boot_count;
    shard;
    on_enter_third;
    write_off;
    next_record_no;
    current_third = min (write_off / third) 2;
    third_first = [| None; None; None |];
    stats;
    buf = Bytes.empty;
  }

let current_third t = t.current_third
let stats t = t.stats
let next_record_no t = t.next_record_no

(* Fill of the current third, measured from that third's own base. When a
   record ends exactly on a third boundary the head has not yet entered
   the next third (entry happens on the next append), so the fill must
   read 1.0 — not wrap to 0.0 — until reclamation actually runs. *)
let third_fill t =
  let third = third_sectors t.layout in
  let off = t.write_off - (t.current_third * third) in
  Float.min 1.0 (float_of_int off /. float_of_int third)

(* After a clean shutdown every page is home; point the next recovery at
   the (empty) end of the chain so it replays nothing. *)
let reset_pointer t =
  write_pointer t.device t.layout ~offset:t.write_off ~record_no:t.next_record_no
    ~boot_count:t.boot_count

(* Where a record of [record_sectors] goes: its start (back at 0 when it
   would run past the end of the body) and the thirds it touches that the
   head is not in yet, which [append] enters and so overwrites. *)
let place t ~record_sectors =
  let third = third_sectors t.layout in
  let start =
    if t.write_off + record_sectors > body_sectors t.layout then 0 else t.write_off
  in
  let first = start / third and last = (start + record_sectors - 1) / third in
  ( start,
    List.filter
      (fun j -> j <> t.current_third)
      (List.init (last - first + 1) (fun i -> first + i)) )

let thirds_entered_by t ~record_sectors = snd (place t ~record_sectors)

(* Pointer target: the first record of the oldest third that still holds
   live records; if no other third does, the record about to be written. *)
let update_pointer t =
  let candidates =
    [ (t.current_third + 1) mod 3; (t.current_third + 2) mod 3; t.current_third ]
  in
  let offset, record_no =
    match List.find_map (fun j -> t.third_first.(j)) candidates with
    | Some (off, no) -> (off, no)
    | None -> (t.write_off, t.next_record_no)
  in
  write_pointer t.device t.layout ~offset ~record_no ~boot_count:t.boot_count

let enter_third t j =
  t.stats.third_entries <- t.stats.third_entries + 1;
  t.on_enter_third j;
  t.third_first.(j) <- None;
  t.current_third <- j;
  update_pointer t;
  (* A barrier: the pointer and the home writes this entry needs are
     serviced before the record that overwrites [j]. *)
  ignore (Device.busy_until t.device : int)

let append t units =
  if units = [] then invalid_arg "Log.append: empty record";
  List.iter
    (fun u ->
      let n = unit_sectors t.layout u.kind in
      if Bytes.length u.image <> n * sector_bytes t.layout then
        invalid_arg "Log.append: image size mismatch")
    units;
  let n = data_sectors_of t.layout units in
  if n > max_data_sectors_hard t.layout then
    invalid_arg "Log.append: record exceeds structural cap";
  let size = record_total_sectors t.layout units in
  let third = third_sectors t.layout in
  if size > third then invalid_arg "Log.append: record larger than a third";
  let start, entered = place t ~record_sectors:size in
  t.write_off <- start;
  List.iter (enter_third t) entered;
  let first_t = t.write_off / third in
  if t.third_first.(first_t) = None then
    t.third_first.(first_t) <- Some (t.write_off, t.next_record_no);
  (* Assemble the record in the log's buffer: each unit image is copied
     once, into the primary data slot, and the copies are blitted from
     the primary. *)
  let sb = sector_bytes t.layout in
  if Bytes.length t.buf < size * sb then t.buf <- Bytes.create (size * sb);
  let buf = t.buf in
  let pos = ref (3 * sb) in
  List.iter
    (fun u ->
      Bytes.blit u.image 0 buf !pos (Bytes.length u.image);
      pos := !pos + Bytes.length u.image)
    units;
  Bytes.blit (encode_header t units) 0 buf 0 sb;
  Bytes.blit
    (encode_end t.layout ~record_no:t.next_record_no ~n buf ~pos:(3 * sb))
    0 buf !pos sb;
  (* sector 1 stays blank; header' at 2; data' and end' after end *)
  Bytes.fill buf sb sb '\000';
  Bytes.blit buf 0 buf (2 * sb) sb;
  Bytes.blit buf (3 * sb) buf ((4 + n) * sb) ((n + 1) * sb);
  Device.write_sectors t.device ~sector:(body_start t.layout + t.write_off) ~count:size buf;
  let tr = Device.trace t.device in
  if Cedar_obs.Trace.enabled tr then
    Cedar_obs.Trace.emit tr
      ~at:(Simclock.now (Device.clock t.device))
      (Cedar_obs.Trace.Log_append
         {
           record_no = t.next_record_no;
           units = List.length units;
           data_sectors = n;
           total_sectors = size;
           third = first_t;
         });
  t.stats.records <- t.stats.records + 1;
  t.stats.data_sectors <- t.stats.data_sectors + n;
  t.stats.total_sectors <- t.stats.total_sectors + size;
  Stats.add t.stats.record_sizes (float_of_int size);
  t.write_off <- t.write_off + size;
  t.next_record_no <- Int64.add t.next_record_no 1L;
  (* Pages must be flushed home before ANY sector of their record can be
     overwritten; a record may straddle a third boundary, and its start
     third is re-entered first, so that is the survival horizon. *)
  first_t

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type recovery = {
  replayed_records : int;
  last_record_no : int64 option;
  pointer_record_no : int64;
  next_write_off : int;
  surviving : (int * int64) list;
  corrected_sectors : int;
  images : (unit_kind * bytes * int64) list;
}

(* Read the record at body offset [off] expecting [expected] as its record
   number. Returns each unit's kind and image, and the record's size in
   sectors, or [None] (chain break / torn). Each element is read from
   its primary, and from its copy only when the primary fails: a chain
   end costs the header and its copy. Header and end sectors are read
   into [scratch], one sector the pass owns, and decoded at once. *)
let read_record device layout ~shard ~off ~expected ~corrected ~scratch =
  let body = body_start layout in
  (* not even an empty record fits past here *)
  if off + Params.log_record_sectors 0 > body_sectors layout then None
  else begin
    let sector i = body + off + i in
    let decoded s decode =
      match Device.read_run_into device ~sector:s ~count:1 scratch ~pos:0 with
      | () -> decode scratch
      | exception Device.Error _ -> None
    in
    (* [primary] or, when that fails, its copy [copy]. *)
    let either primary copy decode =
      match decoded (sector primary) decode with
      | Some v -> Some v
      | None ->
        let v = decoded (sector copy) decode in
        if Option.is_some v then incr corrected;
        v
    in
    match either 0 2 (decode_header layout) with
    | None -> None
    | Some h ->
      (* A record stamped for another volume's shard ends this chain:
         shards never share a log region, so a foreign tag means the
         sectors are stale garbage from a previous life of the device. *)
      if h.h_record_no <> expected || h.h_shard <> shard then None
      else begin
        let n = h.h_data_sectors in
        let size = Params.log_record_sectors n in
        if off + size > body_sectors layout then None
        else begin
          match either (3 + n) (4 + (2 * n)) decode_end with
          | None -> None (* torn record: the commit never completed *)
          | Some (end_no, crcs) ->
            if end_no <> h.h_record_no || Array.length crcs <> n then None
            else begin
              (* Read each data sector straight into its unit's image,
                 from whichever copy checks out: one command per sector,
                 the copy only when the primary fails its CRC. *)
              let sb = sector_bytes layout in
              let fetch image ~slot i =
                let pos = slot * sb in
                let try_sector s =
                  match Device.read_run_into device ~sector:s ~count:1 image ~pos with
                  | () -> Crc32.bytes ~pos ~len:sb image = crcs.(i)
                  | exception Device.Error _ -> false
                in
                try_sector (sector (3 + i))
                || (try_sector (sector (4 + n + i)) && (incr corrected; true))
              in
              let rec units first = function
                | [] -> Some []
                | (kind, nsec) :: rest ->
                  let image = Bytes.create (nsec * sb) in
                  let rec fill slot =
                    slot = nsec || (fetch image ~slot (first + slot) && fill (slot + 1))
                  in
                  if fill 0 then
                    Option.map (fun us -> (kind, image) :: us) (units (first + nsec) rest)
                  else None (* both copies of a data sector lost *)
              in
              Option.map (fun us -> (us, size)) (units 0 h.h_units)
            end
        end
      end
  end

(* The single sequential REDO pass: follow the chain from the pointer,
   apply each committed record in log order (later images shadow
   earlier ones), stop at the first break. Every live log sector is read
   exactly once — the wrap probe applies the record it decodes instead
   of rescanning it, and a chain that started at offset 0 is never
   probed there again. *)
let recover ?(shard = 0) device layout =
  let corrected = ref 0 in
  let scratch = Bytes.create (sector_bytes layout) in
  let images : (unit_kind, bytes * int64) Hashtbl.t = Hashtbl.create 64 in
  let surviving = ref [] in
  let replayed = ref 0 in
  let last_no = ref None in
  let pointer_record_no, next_write_off =
    match read_pointer device layout with
    | None -> (1L, 0) (* both pointer copies gone: nothing can be replayed *)
    | Some (ptr_off, ptr_no, _boot) ->
      let apply ~off expected units =
        List.iter
          (fun (kind, image) -> Hashtbl.replace images kind (image, expected))
          units;
        surviving := (off, expected) :: !surviving;
        incr replayed;
        last_no := Some expected
      in
      let rec scan off expected wrapped visited =
        if visited > body_sectors layout then off
        else
          match read_record device layout ~shard ~off ~expected ~corrected ~scratch with
          | Some (units, size) ->
            apply ~off expected units;
            scan (off + size) (Int64.add expected 1L) wrapped (visited + size)
          | None ->
            (* The writer may have wrapped to offset 0 mid-chain. *)
            if (not wrapped) && off <> 0 && ptr_off <> 0 then
              match read_record device layout ~shard ~off:0 ~expected ~corrected ~scratch with
              | Some (units, size) ->
                apply ~off:0 expected units;
                scan size (Int64.add expected 1L) true (visited + size)
              | None -> off
            else off
      in
      (ptr_no, scan ptr_off ptr_no false 0)
  in
  {
    replayed_records = !replayed;
    last_record_no = !last_no;
    pointer_record_no;
    next_write_off;
    surviving = List.rev !surviving;
    corrected_sectors = !corrected;
    images = Hashtbl.fold (fun k (img, no) acc -> (k, img, no) :: acc) images [];
  }
