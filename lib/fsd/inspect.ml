open Cedar_disk
open Cedar_fsbase

let pp_unit_kind ppf = function
  | Log.Fnt_page p -> Format.fprintf ppf "fnt:%d" p
  | Log.Leader_page s -> Format.fprintf ppf "leader@%d" s
  | Log.Vam_chunk c -> Format.fprintf ppf "vam:%d" c

let log_report device layout ppf =
  let r =
    Log.recover ~shard:layout.Layout.params.Params.shard_id device layout
  in
  Format.fprintf ppf "log region: %d sectors at %d (thirds of %d)@."
    layout.Layout.log_sectors layout.Layout.log_start
    ((layout.Layout.log_sectors - 3) / 3);
  Format.fprintf ppf "surviving records: %d (last #%s), %d sectors corrected@."
    r.Log.replayed_records
    (match r.Log.last_record_no with Some n -> Int64.to_string n | None -> "-")
    r.Log.corrected_sectors;
  List.iter
    (fun (off, no) -> Format.fprintf ppf "  record #%Ld at body offset %d@." no off)
    r.Log.surviving;
  if r.Log.images <> [] then begin
    Format.fprintf ppf "live images (latest per unit):@.";
    List.iter
      (fun (kind, image, no) ->
        Format.fprintf ppf "  %a  %d bytes  (record #%Ld)@." pp_unit_kind kind
          (Bytes.length image) no)
      (List.sort compare r.Log.images)
  end

let name_table_report fs ppf =
  let stats = Fsd.fnt_stats fs in
  let layout = Fsd.layout fs in
  let page_payload =
    (layout.Layout.params.Params.fnt_page_sectors
    * layout.Layout.geom.Geometry.sector_bytes)
    - 16
  in
  Format.fprintf ppf
    "name table: depth %d, %d pages, %d entries, %d bytes used (%.0f%% fill)@."
    stats.Cedar_btree.Btree.depth stats.Cedar_btree.Btree.pages
    stats.Cedar_btree.Btree.entries stats.Cedar_btree.Btree.used_bytes
    (if stats.Cedar_btree.Btree.pages = 0 then 0.0
     else
       100.0
       *. float_of_int stats.Cedar_btree.Btree.used_bytes
       /. float_of_int (stats.Cedar_btree.Btree.pages * page_payload));
  let local, cached, bytes =
    Fsd.fold_entries fs ~init:(0, 0, 0)
      ~f:(fun (l, c, b) ~name:_ ~version:_ e ->
        let b = b + e.Entry.byte_size in
        match e.Entry.kind with
        | Entry.Local -> (l + 1, c, b)
        | Entry.Cached _ -> (l, c + 1, b))
  in
  Format.fprintf ppf "entries: %d local, %d cached remote; %d bytes of file data@."
    local cached bytes

let robustness_report fs ppf =
  let count name =
    Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))
  in
  Format.fprintf ppf
    "robustness: %d scrub passes (%d FNT copies repaired, %d leaders \
     rewritten); %d twin repairs on read, %d FNT home writes@."
    (count "scrub_passes") (count "scrub_fnt_repairs")
    (count "scrub_leader_repairs") (Fsd.fnt_repairs fs) (Fsd.fnt_home_writes fs)

let free_extents fs ~lo ~hi =
  let extents = ref [] in
  let run_start = ref (-1) in
  for s = lo to hi do
    let free = s < hi && Fsd.sector_is_free fs s in
    if free && !run_start < 0 then run_start := s
    else if (not free) && !run_start >= 0 then begin
      extents := (s - !run_start, !run_start) :: !extents;
      run_start := -1
    end
  done;
  List.sort (fun a b -> compare b a) !extents

let vam_report fs ppf =
  let layout = Fsd.layout fs in
  Format.fprintf ppf "free sectors: %d of %d data sectors@." (Fsd.free_sectors fs)
    (Layout.data_sectors layout);
  let show label lo hi =
    let extents = free_extents fs ~lo ~hi in
    let top = List.filteri (fun i _ -> i < 10) extents in
    Format.fprintf ppf "%s area [%d,%d): %d free extents; largest:" label lo hi
      (List.length extents);
    List.iter (fun (len, start) -> Format.fprintf ppf " %d@%d" len start) top;
    Format.fprintf ppf "@."
  in
  show "small" layout.Layout.small_lo layout.Layout.small_hi;
  show "big" layout.Layout.big_lo layout.Layout.big_hi

let layout_report layout ppf =
  Format.fprintf ppf "%a@." Layout.pp layout;
  Format.fprintf ppf "geometry: %a@." Geometry.pp layout.Layout.geom

let volume_report fs =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  layout_report (Fsd.layout fs) ppf;
  name_table_report fs ppf;
  robustness_report fs ppf;
  vam_report fs ppf;
  log_report (Fsd.device fs) (Fsd.layout fs) ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
