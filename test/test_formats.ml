(* The on-disk formats, pinned. Each volume below is formatted on the
   tiny geometry, runs one fixed sequence of operations — creates, a
   delete, a commit, an uncommitted create, a crash, the system's own
   recovery, one more create and a clean shutdown — and the image
   [Device.dump] writes must have the MD5 recorded here. Every metadata
   frame, codec, layout and allocation choice reaches the image, so a
   change to any on-disk byte changes a digest: it has to be an edit of
   this table, made on purpose, never a side effect. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase

let geom = Geometry.tiny_test
let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let image_md5 device =
  let path = Filename.temp_file "cedar-format" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Device.dump device oc;
      close_out oc;
      Digest.to_hex (Digest.file path))

(* Work before the crash; no force follows the last create. *)
let before_crash (ops : Fs_ops.t) =
  ignore (ops.Fs_ops.create ~name:"doc/a" ~data:(content 700 1) : Fs_ops.info);
  ignore (ops.Fs_ops.create ~name:"doc/b" ~data:(content 1400 2) : Fs_ops.info);
  ignore (ops.Fs_ops.create ~name:"src/c" ~data:(content 300 3) : Fs_ops.info);
  ops.Fs_ops.delete ~name:"doc/b";
  ops.Fs_ops.force ();
  ignore (ops.Fs_ops.create ~name:"doc/d" ~data:(content 2000 4) : Fs_ops.info)

let after_recovery (ops : Fs_ops.t) =
  ignore (ops.Fs_ops.create ~name:"doc/e" ~data:(content 900 5) : Fs_ops.info)

let fsd_image params =
  let device = Device.create ~clock:(Simclock.create ()) geom in
  let open Cedar_fsd in
  Fsd.format device params;
  before_crash (Fsd.ops (fst (Fsd.boot device)));
  let fs, _ = Fsd.boot device in
  after_recovery (Fsd.ops fs);
  Fsd.shutdown fs;
  device

let cfs_image () =
  let device = Device.create ~clock:(Simclock.create ()) geom in
  let open Cedar_cfs in
  Cfs.format device (Cfs_layout.params_for_geometry geom);
  (match Cfs.boot device with
  | `Ok fs -> before_crash (Cfs.ops fs)
  | `Needs_scavenge -> Alcotest.fail "fresh CFS volume must boot");
  (match Cfs.boot device with
  | `Ok _ -> Alcotest.fail "a crashed CFS volume must need the scavenger"
  | `Needs_scavenge -> ());
  let fs, _ = Cfs.scavenge device in
  after_recovery (Cfs.ops fs);
  Cfs.shutdown fs;
  device

let ufs_image () =
  let device = Device.create ~clock:(Simclock.create ()) geom in
  let open Cedar_unixfs in
  Ufs.mkfs device (Ufs_params.for_geometry geom);
  (match Ufs.mount device with
  | `Ok fs -> before_crash (Ufs.ops fs)
  | `Needs_fsck -> Alcotest.fail "fresh UFS volume must mount");
  (match Ufs.mount device with
  | `Ok _ -> Alcotest.fail "a crashed UFS volume must need fsck"
  | `Needs_fsck -> ());
  let fs, _ = Ufs.fsck device in
  after_recovery (Ufs.ops fs);
  Ufs.unmount fs;
  device

let pin name md5 image () =
  Alcotest.(check string) (name ^ " image MD5") md5 (image_md5 (image ()))

let fsd_default = Cedar_fsd.Params.for_geometry geom

let fsd_log_vam = { fsd_default with Cedar_fsd.Params.log_vam = true }

(* Cached copies of remote files, whose entries, leaders and headers
   carry the cached kind. FSD logs the first touch's leader image in a
   force, loses the second touch in the crash, and recovery writes the
   logged image home. *)
let fsd_cached_image () =
  let device = Device.create ~clock:(Simclock.create ()) geom in
  let open Cedar_fsd in
  Fsd.format device fsd_default;
  let fs, _ = Fsd.boot device in
  ignore (Fsd.create fs ~name:"doc/a" (content 700 1) : Fs_ops.info);
  ignore (Fsd.import_cached fs ~name:"rem/x" ~server:"ivy" (content 1400 2) : Fs_ops.info);
  Fsd.touch_cached fs ~name:"rem/x";
  Fsd.force fs;
  Fsd.touch_cached fs ~name:"rem/x";
  let fs, _ = Fsd.boot device in
  ignore (Fsd.import_cached fs ~name:"rem/y" ~server:"ivy" (content 300 3) : Fs_ops.info);
  Fsd.shutdown fs;
  device

let cfs_cached_image () =
  let device = Device.create ~clock:(Simclock.create ()) geom in
  let open Cedar_cfs in
  Cfs.format device (Cfs_layout.params_for_geometry geom);
  (match Cfs.boot device with
  | `Ok fs ->
    ignore (Cfs.create fs ~name:"doc/a" (content 700 1) : Fs_ops.info);
    ignore (Cfs.import_cached fs ~name:"rem/x" ~server:"ivy" (content 1400 2) : Fs_ops.info);
    Cfs.touch_cached fs ~name:"rem/x";
    Cfs.shutdown fs
  | `Needs_scavenge -> Alcotest.fail "fresh CFS volume must boot");
  device

(* The digests, recorded when each test was written. The three FSD
   ones were re-recorded when boot stopped probing for a retired second
   log record layout: one read fewer moves the create (and last-used)
   time of the file made after the recovery boot, and the checksums
   over it, and no other byte. The log_vam and cached-file ones were
   re-recorded again when boot came to install everything before it
   moves the log pointer: a VAM-logging boot saves its base, and a boot
   with logged leaders writes them, before the pointer, which moves the
   arm and so the create times that follow, and no other byte. *)
let suite =
  [
    ( "fsd image bytes pinned",
      `Quick,
      pin "FSD" "889a6ebcce5e540a52cfb77654ae169e" (fun () -> fsd_image fsd_default) );
    ( "fsd log_vam image bytes pinned",
      `Quick,
      pin "FSD +vam-logging" "b1b461e9170ef16c287f8dd1d4e5a8b1" (fun () ->
          fsd_image fsd_log_vam) );
    ( "cfs image bytes pinned",
      `Quick,
      pin "CFS" "e96d719eee51d776f6476608b204d998" cfs_image );
    ( "fsd cached-file image bytes pinned",
      `Quick,
      pin "FSD cached files" "3c6878f6d80667654dab906c1af424b2" fsd_cached_image );
    ( "cfs cached-file image bytes pinned",
      `Quick,
      pin "CFS cached files" "456e5d75d6b2e2338750298a06c1bc54" cfs_cached_image );
    ( "ufs image bytes pinned",
      `Quick,
      pin "4.3BSD" "9f44e7fae17d3e97fb040b19f9472555" ufs_image );
  ]
