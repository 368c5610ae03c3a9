open Cedar_util
open Cedar_disk
open Cedar_fsbase

type fsck_report = {
  inodes_checked : int;
  dirs_checked : int;
  problems_fixed : int;
  duration_us : int;
}

let corrupt msg = Fs_error.raise_ (Fs_error.Corrupt_metadata msg)

(* ------------------------------------------------------------------ *)
(* Geometry of the volume                                              *)

type shape = {
  block_bytes : int;
  block_sectors : int;
  total_blocks : int;
  ngroups : int;
  bpg : int;  (** blocks per group *)
  ipg : int;  (** inodes per group *)
  inode_blocks : int;  (** per group *)
  first_group_block : int;  (** groups start after boot + superblock *)
}

let shape_of geom (p : Ufs_params.t) =
  let total_sectors = Geometry.total_sectors geom in
  let block_sectors = p.Ufs_params.block_sectors in
  let block_bytes = block_sectors * geom.Geometry.sector_bytes in
  let total_blocks = total_sectors / block_sectors in
  let bpg =
    p.Ufs_params.cylinders_per_group * Geometry.sectors_per_cylinder geom
    / block_sectors
  in
  let ipg_raw = max 32 (bpg / p.Ufs_params.inode_ratio_blocks) in
  let inodes_per_block = block_bytes / Inode.bytes_per_inode in
  let inode_blocks = (ipg_raw + inodes_per_block - 1) / inodes_per_block in
  let ipg = inode_blocks * inodes_per_block in
  let first_group_block = 2 in
  let ngroups = (total_blocks - first_group_block) / bpg in
  if ngroups < 1 then invalid_arg "Ufs: volume too small";
  { block_bytes; block_sectors; total_blocks; ngroups; bpg; ipg; inode_blocks; first_group_block }

let group_start sh g = sh.first_group_block + (g * sh.bpg)
let cg_block sh g = group_start sh g
let inode_block sh g i = group_start sh g + 1 + i
let data_start sh g = group_start sh g + 1 + sh.inode_blocks

let group_of_block sh b = (b - sh.first_group_block) / sh.bpg
let root_inum = 2

let group_of_inum sh inum = (inum - 1) / sh.ipg
let index_of_inum sh inum = (inum - 1) mod sh.ipg
let inum_of sh g idx = (g * sh.ipg) + idx + 1

(* ------------------------------------------------------------------ *)
(* Cylinder-group descriptor block: block bitmap ++ inode bitmap.      *)

module Cg = struct
  type t = { blocks : Bitmap.t; inodes : Bitmap.t }

  let magic = 0x55434731 (* "UCG1" *)

  let fresh sh =
    (* Block bits cover the whole group (bit = used); the descriptor and
       inode blocks are born used. *)
    let blocks = Bitmap.create sh.bpg in
    Bitmap.set_run blocks ~pos:0 ~len:(1 + sh.inode_blocks);
    { blocks; inodes = Bitmap.create sh.ipg }

  let encode sh t =
    let w = Bytebuf.Writer.create () in
    Bytebuf.Writer.u32 w magic;
    Bytebuf.Writer.u32 w (Bitmap.length t.blocks);
    Bytebuf.Writer.raw w (Bitmap.to_bytes t.blocks);
    Bytebuf.Writer.u32 w (Bitmap.length t.inodes);
    Bytebuf.Writer.raw w (Bitmap.to_bytes t.inodes);
    let b = Bytebuf.Writer.contents w in
    if Bytes.length b > sh.block_bytes then invalid_arg "Cg.encode: overflow";
    let out = Bytes.make sh.block_bytes '\000' in
    Bytes.blit b 0 out 0 (Bytes.length b);
    out

  let decode image =
    match
      let r = Bytebuf.Reader.of_bytes image in
      let m = Bytebuf.Reader.u32 r in
      if m <> magic then None
      else begin
        let nb = Bytebuf.Reader.u32 r in
        let blocks = Bitmap.of_bytes ~bits:nb (Bytebuf.Reader.raw r ((nb + 7) / 8)) in
        let ni = Bytebuf.Reader.u32 r in
        let inodes = Bitmap.of_bytes ~bits:ni (Bytebuf.Reader.raw r ((ni + 7) / 8)) in
        Some { blocks; inodes }
      end
    with
    | v -> v
    | exception Bytebuf.Decode_error _ -> None
end

(* ------------------------------------------------------------------ *)
(* Superblock (block 1)                                                *)

let sb_magic = 0x55465331 (* "UFS1" *)

let encode_sb sh (p : Ufs_params.t) ~clean ~block_bytes =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w sb_magic;
  Bytebuf.Writer.bool w clean;
  Bytebuf.Writer.u16 w p.Ufs_params.block_sectors;
  Bytebuf.Writer.u16 w p.Ufs_params.cylinders_per_group;
  Bytebuf.Writer.u16 w p.Ufs_params.inode_ratio_blocks;
  Bytebuf.Writer.u16 w p.Ufs_params.rotdelay_blocks;
  Bytebuf.Writer.u32 w sh.ngroups;
  Bytebuf.Writer.u32 w sh.bpg;
  Bytebuf.Writer.u32 w sh.ipg;
  Bytebuf.Writer.seal w ~size:block_bytes

let decode_sb image =
  Bytebuf.Reader.unseal ~magic:sb_magic image (fun r ->
      let clean = Bytebuf.Reader.bool r in
      let block_sectors = Bytebuf.Reader.u16 r in
      let cylinders_per_group = Bytebuf.Reader.u16 r in
      let inode_ratio_blocks = Bytebuf.Reader.u16 r in
      let rotdelay_blocks = Bytebuf.Reader.u16 r in
      let _ngroups = Bytebuf.Reader.u32 r in
      let _bpg = Bytebuf.Reader.u32 r in
      let _ipg = Bytebuf.Reader.u32 r in
      ( clean,
        fun (base : Ufs_params.t) ->
          {
            base with
            Ufs_params.block_sectors;
            cylinders_per_group;
            inode_ratio_blocks;
            rotdelay_blocks;
          } ))

(* ------------------------------------------------------------------ *)
(* The file system                                                     *)

type buf = { mutable data : bytes; mutable dirty : bool }

type t = {
  device : Device.t;
  clock : Simclock.t;
  params : Ufs_params.t;
  sh : shape;
  cache : (int, buf) Lru.t;
  cgs : Cg.t array; (* authoritative copy; flushed to cg blocks on sync *)
  cg_dirty : bool array;
  mutable alloc_hint : int array; (* next data block to try, per group *)
  mutable next_dir_group : int;
  mutable cpu_overlapped : int;
  mutable live : bool;
  ops_c : Cedar_obs.Metrics.counter;
}

let cpu_overlapped_us t = t.cpu_overlapped
let require_live t = if not t.live then Fs_error.raise_ Fs_error.Not_booted

let op_cpu t =
  Cedar_obs.Metrics.inc t.ops_c;
  Simclock.advance t.clock t.params.Ufs_params.cpu_op_us

(* Span wrapper for the public operations; free when tracing is off. *)
let traced t ~op ~name f =
  let tr = Device.trace t.device in
  if not (Cedar_obs.Trace.enabled tr) then f ()
  else begin
    let t0 = Simclock.now t.clock in
    let id = Cedar_obs.Trace.begin_span tr ~at:t0 ~op ~name in
    match f () with
    | v ->
      Cedar_obs.Trace.end_span tr ~at:(Simclock.now t.clock) id;
      v
    | exception e ->
      Cedar_obs.Trace.end_span tr ~at:(Simclock.now t.clock) id;
      raise e
  end

let data_cpu t us = t.cpu_overlapped <- t.cpu_overlapped + us

(* --- buffer cache ------------------------------------------------- *)

let sector_of_block t b = b * t.sh.block_sectors

let writeback t block (buf : buf) =
  if buf.dirty then begin
    Device.write_run t.device ~sector:(sector_of_block t block) buf.data;
    buf.dirty <- false
  end

let cache_insert t block buf =
  List.iter (fun (b, victim) -> writeback t b victim) (Lru.add t.cache block buf)

let read_block t block =
  match Lru.find t.cache block with
  | Some buf -> buf.data
  | None ->
    let data =
      Device.read_run t.device ~sector:(sector_of_block t block)
        ~count:t.sh.block_sectors
    in
    let buf = { data; dirty = false } in
    cache_insert t block buf;
    data

(* Synchronous metadata write: straight to disk (and cache). *)
let write_block_sync t block data =
  Device.write_run t.device ~sector:(sector_of_block t block) data;
  (match Lru.peek t.cache block with
  | Some buf ->
    buf.data <- data;
    buf.dirty <- false
  | None -> cache_insert t block { data; dirty = false })

(* Delayed write: cache only; reaches disk on eviction or sync. *)
let write_block_delayed t block data =
  match Lru.peek t.cache block with
  | Some buf ->
    buf.data <- data;
    buf.dirty <- true;
    ignore (Lru.find t.cache block : buf option)
  | None -> cache_insert t block { data; dirty = true }

let flush_cgs t =
  Array.iteri
    (fun g cg ->
      if t.cg_dirty.(g) then begin
        write_block_sync t (cg_block t.sh g) (Cg.encode t.sh cg);
        t.cg_dirty.(g) <- false
      end)
    t.cgs

let drop_clean_cache t =
  let clean = ref [] in
  Lru.iter t.cache (fun b buf -> if not buf.dirty then clean := b :: !clean);
  List.iter (Lru.remove t.cache) !clean

let sync t =
  require_live t;
  (* Data first (in block order), then the touched bitmaps: cg writes go
     through the cache and must not evict still-dirty data blocks. *)
  let dirty = ref [] in
  Lru.iter t.cache (fun b buf -> if buf.dirty then dirty := (b, buf) :: !dirty);
  List.iter (fun (b, buf) -> writeback t b buf) (List.sort compare !dirty);
  flush_cgs t

(* --- allocation ---------------------------------------------------- *)

let alloc_block t ~group ~near =
  let try_group g =
    let cg = t.cgs.(g) in
    let lo = 1 + t.sh.inode_blocks in
    let start =
      match near with
      | Some b when group_of_block t.sh b = g ->
        (* 4.2-style rotational spacing: leave [rotdelay] blocks between
           consecutively-allocated blocks of a file. *)
        b - group_start t.sh g + 1 + t.params.Ufs_params.rotdelay_blocks
      | Some _ | None -> max lo (t.alloc_hint.(g) - group_start t.sh g)
    in
    let find from =
      let rec go i =
        if i >= t.sh.bpg then None
        else if not (Bitmap.get cg.Cg.blocks i) then Some i
        else go (i + 1)
      in
      go (max lo from)
    in
    match (match find start with Some i -> Some i | None -> find lo) with
    | None -> None
    | Some i ->
      Bitmap.set cg.Cg.blocks i;
      t.cg_dirty.(g) <- true;
      let b = group_start t.sh g + i in
      t.alloc_hint.(g) <- b + 1;
      Some b
  in
  let rec rotate g n = if n = 0 then None else
      match try_group g with
      | Some b -> Some b
      | None -> rotate ((g + 1) mod t.sh.ngroups) (n - 1)
  in
  match rotate group t.sh.ngroups with
  | Some b -> b
  | None -> Fs_error.raise_ Fs_error.Volume_full

let free_block t b =
  let g = group_of_block t.sh b in
  let i = b - group_start t.sh g in
  if not (Bitmap.get t.cgs.(g).Cg.blocks i) then invalid_arg "Ufs.free_block";
  Bitmap.clear t.cgs.(g).Cg.blocks i;
  t.cg_dirty.(g) <- true

let alloc_inode t ~group ~kind =
  let try_group g =
    let cg = t.cgs.(g) in
    let rec go i =
      if i >= t.sh.ipg then None
      else if not (Bitmap.get cg.Cg.inodes i) then Some i
      else go (i + 1)
    in
    match go 0 with
    | None -> None
    | Some i ->
      Bitmap.set cg.Cg.inodes i;
      t.cg_dirty.(g) <- true;
      Some (inum_of t.sh g i)
  in
  let start =
    match kind with
    | Inode.Dir ->
      (* new directories go round-robin across groups, like FFS *)
      let g = t.next_dir_group in
      t.next_dir_group <- (g + 1) mod t.sh.ngroups;
      g
    | Inode.Reg -> group
  in
  let rec rotate g n =
    if n = 0 then Fs_error.raise_ Fs_error.Volume_full
    else match try_group g with Some i -> i | None -> rotate ((g + 1) mod t.sh.ngroups) (n - 1)
  in
  rotate start t.sh.ngroups

let free_inode t inum =
  let g = group_of_inum t.sh inum and i = index_of_inum t.sh inum in
  Bitmap.clear t.cgs.(g).Cg.inodes i;
  t.cg_dirty.(g) <- true

(* --- inode I/O ------------------------------------------------------ *)

let inode_location t inum =
  let g = group_of_inum t.sh inum and i = index_of_inum t.sh inum in
  let per_block = t.sh.block_bytes / Inode.bytes_per_inode in
  (inode_block t.sh g (i / per_block), i mod per_block * Inode.bytes_per_inode)

let read_inode t inum =
  let block, off = inode_location t inum in
  let data = read_block t block in
  match Inode.decode (Bytes.sub data off Inode.bytes_per_inode) with
  | Some ino -> ino
  | None -> corrupt (Printf.sprintf "inode %d does not decode" inum)

(* "A file create in UNIX writes the inode to disk before returning." *)
let write_inode_sync t inum ino =
  let block, off = inode_location t inum in
  let data = Bytes.copy (read_block t block) in
  Bytes.blit (Inode.encode ino) 0 data off Inode.bytes_per_inode;
  write_block_sync t block data

let clear_inode_sync t inum =
  let block, off = inode_location t inum in
  let data = Bytes.copy (read_block t block) in
  Bytes.fill data off Inode.bytes_per_inode '\000';
  write_block_sync t block data

(* --- file block mapping --------------------------------------------- *)

let pointers_per_block t = t.sh.block_bytes / 4

let read_pointers t block =
  let data = read_block t block in
  Array.init (pointers_per_block t) (fun i ->
      Int32.to_int (Bytes.get_int32_le data (i * 4)) land 0xffffffff)

let write_pointers_delayed t block ptrs =
  let data = Bytes.make t.sh.block_bytes '\000' in
  Array.iteri (fun i p -> Bytes.set_int32_le data (i * 4) (Int32.of_int p)) ptrs;
  write_block_delayed t block data

let file_block t (ino : Inode.t) i =
  if i < Inode.n_direct then ino.Inode.direct.(i)
  else begin
    let j = i - Inode.n_direct in
    if j >= pointers_per_block t || ino.Inode.indirect = 0 then 0
    else (read_pointers t ino.Inode.indirect).(j)
  end

let file_blocks t (ino : Inode.t) =
  let n = (ino.Inode.size + t.sh.block_bytes - 1) / t.sh.block_bytes in
  List.init n (fun i -> file_block t ino i)

let max_file_blocks t = Inode.n_direct + pointers_per_block t

(* --- directories ----------------------------------------------------- *)

let dir_entries t (ino : Inode.t) =
  List.concat_map
    (fun b ->
      if b = 0 then []
      else
        match Dirblock.entries (read_block t b) with
        | e -> e
        | exception Bytebuf.Decode_error m -> corrupt ("directory block: " ^ m))
    (file_blocks t ino)

let dir_lookup t ino name =
  List.find_map
    (fun (inum, n) -> if String.equal n name then Some inum else None)
    (dir_entries t ino)

(* Adding an entry rewrites a directory block synchronously. *)
let dir_add t ~dirinum ~name ~inum =
  let ino = read_inode t dirinum in
  let blocks = file_blocks t ino in
  let rec place = function
    | [] ->
      (* grow the directory by one block *)
      let g = group_of_inum t.sh dirinum in
      let b = alloc_block t ~group:g ~near:None in
      let image =
        match Dirblock.encode ~block_bytes:t.sh.block_bytes [ (inum, name) ] with
        | Some i -> i
        | None -> corrupt "directory entry too large"
      in
      write_block_sync t b image;
      let idx = List.length blocks in
      if idx >= max_file_blocks t then corrupt "directory too large";
      (if idx < Inode.n_direct then ino.Inode.direct.(idx) <- b
       else begin
         if ino.Inode.indirect = 0 then begin
           ino.Inode.indirect <- alloc_block t ~group:g ~near:None;
           write_pointers_delayed t ino.Inode.indirect
             (Array.make (pointers_per_block t) 0)
         end;
         let ptrs = read_pointers t ino.Inode.indirect in
         ptrs.(idx - Inode.n_direct) <- b;
         write_pointers_delayed t ino.Inode.indirect ptrs
       end);
      ino.Inode.size <- (idx + 1) * t.sh.block_bytes;
      write_inode_sync t dirinum ino
    | b :: rest -> (
      let entries = Dirblock.entries (read_block t b) in
      match Dirblock.encode ~block_bytes:t.sh.block_bytes (entries @ [ (inum, name) ]) with
      | Some image -> write_block_sync t b image
      | None -> place rest)
  in
  place blocks

let dir_remove t ~dirinum ~name =
  let ino = read_inode t dirinum in
  let removed = ref false in
  List.iter
    (fun b ->
      if (not !removed) && b <> 0 then begin
        let entries = Dirblock.entries (read_block t b) in
        if List.exists (fun (_, n) -> String.equal n name) entries then begin
          let entries = List.filter (fun (_, n) -> not (String.equal n name)) entries in
          match Dirblock.encode ~block_bytes:t.sh.block_bytes entries with
          | Some image ->
            write_block_sync t b image;
            removed := true
          | None -> assert false
        end
      end)
    (file_blocks t ino);
  !removed

(* --- path walking ---------------------------------------------------- *)

let split_path path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let rec namei t ~dirinum = function
  | [] -> Some dirinum
  | c :: rest -> (
    let ino = read_inode t dirinum in
    if ino.Inode.kind <> Inode.Dir then None
    else
      match dir_lookup t ino c with
      | None -> None
      | Some inum -> namei t ~dirinum:inum rest)

let lookup_path t path = namei t ~dirinum:root_inum (split_path path)

(* Make every intermediate directory, returning the parent's inum. *)
let rec ensure_dirs t ~dirinum = function
  | [] | [ _ ] -> dirinum
  | c :: rest -> (
    let ino = read_inode t dirinum in
    match dir_lookup t ino c with
    | Some inum -> ensure_dirs t ~dirinum:inum rest
    | None ->
      let inum = alloc_inode t ~group:(group_of_inum t.sh dirinum) ~kind:Inode.Dir in
      let dino = Inode.empty Inode.Dir ~mtime:(Simclock.now t.clock) in
      dino.Inode.nlink <- 2;
      write_inode_sync t inum dino;
      dir_add t ~dirinum ~name:c ~inum;
      ensure_dirs t ~dirinum:inum rest)

(* --- public operations ------------------------------------------------ *)

let free_blocks t =
  Array.fold_left
    (fun acc cg -> acc + (t.sh.bpg - Bitmap.count cg.Cg.blocks))
    0 t.cgs

let info_of_inode path inum (ino : Inode.t) =
  { Fs_ops.name = path; version = 1; byte_size = ino.Inode.size; uid = Int64.of_int inum }

let stat t ~path =
  traced t ~op:"stat" ~name:path @@ fun () ->
  require_live t;
  op_cpu t;
  match lookup_path t path with
  | None -> Fs_error.raise_ (Fs_error.No_such_file path)
  | Some inum -> info_of_inode path inum (read_inode t inum)

let exists t ~path =
  require_live t;
  op_cpu t;
  lookup_path t path <> None

let free_file_blocks t ino =
  List.iter (fun b -> if b <> 0 then free_block t b) (file_blocks t ino);
  if ino.Inode.indirect <> 0 then free_block t ino.Inode.indirect

let unlink t ~path =
  traced t ~op:"delete" ~name:path @@ fun () ->
  require_live t;
  op_cpu t;
  let components = split_path path in
  match components with
  | [] -> Fs_error.raise_ (Fs_error.No_such_file path)
  | _ ->
    let name = List.nth components (List.length components - 1) in
    let parent_path = List.filteri (fun i _ -> i < List.length components - 1) components in
    (match namei t ~dirinum:root_inum parent_path with
    | None -> Fs_error.raise_ (Fs_error.No_such_file path)
    | Some dirinum -> (
      let dino = read_inode t dirinum in
      match dir_lookup t dino name with
      | None -> Fs_error.raise_ (Fs_error.No_such_file path)
      | Some inum ->
        let ino = read_inode t inum in
        ignore (dir_remove t ~dirinum ~name : bool);
        free_file_blocks t ino;
        clear_inode_sync t inum;
        free_inode t inum))

let create t ~path data =
  traced t ~op:"create" ~name:path @@ fun () ->
  require_live t;
  op_cpu t;
  if exists t ~path then unlink t ~path;
  let components = split_path path in
  if components = [] then Fs_error.raise_ (Fs_error.Bad_name { name = path; reason = "empty" });
  let name = List.nth components (List.length components - 1) in
  let dirinum = ensure_dirs t ~dirinum:root_inum components in
  let g = group_of_inum t.sh dirinum in
  let inum = alloc_inode t ~group:g ~kind:Inode.Reg in
  let ino = Inode.empty Inode.Reg ~mtime:(Simclock.now t.clock) in
  ino.Inode.size <- Bytes.length data;
  let nblocks = (Bytes.length data + t.sh.block_bytes - 1) / t.sh.block_bytes in
  if nblocks > max_file_blocks t then
    Fs_error.raise_ (Fs_error.Too_fragmented path);
  let last = ref None in
  let indirect_ptrs = ref None in
  for i = 0 to nblocks - 1 do
    let b = alloc_block t ~group:g ~near:!last in
    last := Some b;
    let chunk = Bytes.make t.sh.block_bytes '\000' in
    let off = i * t.sh.block_bytes in
    let len = min t.sh.block_bytes (Bytes.length data - off) in
    Bytes.blit data off chunk 0 len;
    (* data is a delayed write, flushed by sync or eviction *)
    write_block_delayed t b chunk;
    data_cpu t t.params.Ufs_params.cpu_block_write_us;
    if i < Inode.n_direct then ino.Inode.direct.(i) <- b
    else begin
      (match !indirect_ptrs with
      | Some _ -> ()
      | None ->
        ino.Inode.indirect <- alloc_block t ~group:g ~near:None;
        indirect_ptrs := Some (Array.make (pointers_per_block t) 0));
      (Option.get !indirect_ptrs).(i - Inode.n_direct) <- b
    end
  done;
  (match !indirect_ptrs with
  | Some ptrs -> write_pointers_delayed t ino.Inode.indirect ptrs
  | None -> ());
  (* Synchronous ordering discipline: inode before directory entry. *)
  write_inode_sync t inum ino;
  dir_add t ~dirinum ~name ~inum;
  info_of_inode path inum ino

let read_all t ~path =
  traced t ~op:"read_all" ~name:path @@ fun () ->
  require_live t;
  op_cpu t;
  match lookup_path t path with
  | None -> Fs_error.raise_ (Fs_error.No_such_file path)
  | Some inum ->
    let ino = read_inode t inum in
    let out = Bytes.create ino.Inode.size in
    List.iteri
      (fun i b ->
        if b <> 0 then begin
          let data =
            try read_block t b
            with Device.Error { sector; _ } ->
              Fs_error.raise_ (Fs_error.Damaged_data { name = path; sector })
          in
          data_cpu t t.params.Ufs_params.cpu_block_read_us;
          let off = i * t.sh.block_bytes in
          let len = min t.sh.block_bytes (ino.Inode.size - off) in
          if len > 0 then Bytes.blit data 0 out off len
        end)
      (file_blocks t ino);
    out

let read_page t ~path ~page =
  traced t ~op:"read_page" ~name:path @@ fun () ->
  require_live t;
  op_cpu t;
  match lookup_path t path with
  | None -> Fs_error.raise_ (Fs_error.No_such_file path)
  | Some inum ->
    let ino = read_inode t inum in
    let sb = t.sh.block_bytes / t.sh.block_sectors in
    if page < 0 || page * sb >= ino.Inode.size then
      Fs_error.raise_ (Fs_error.Bad_page { name = path; page });
    let bi = page * sb / t.sh.block_bytes in
    let b = file_block t ino bi in
    if b = 0 then Bytes.make sb '\000'
    else begin
      let data = read_block t b in
      data_cpu t t.params.Ufs_params.cpu_block_read_us;
      Bytes.sub data (page * sb mod t.sh.block_bytes) sb
    end

let readdir t ~path =
  traced t ~op:"list" ~name:path @@ fun () ->
  require_live t;
  op_cpu t;
  match lookup_path t path with
  | None -> Fs_error.raise_ (Fs_error.No_such_file path)
  | Some inum ->
    let ino = read_inode t inum in
    if ino.Inode.kind <> Inode.Dir then Fs_error.raise_ (Fs_error.No_such_file path);
    List.map
      (fun (inum, name) ->
        let full = if path = "" then name else path ^ "/" ^ name in
        info_of_inode full inum (read_inode t inum))
      (dir_entries t ino)

(* --- lifecycle --------------------------------------------------------- *)

let mk device params sh cgs =
  let metrics = Device.metrics device in
  let t =
    {
      device;
      clock = Device.clock device;
      params;
      sh;
      cache = Lru.create ~capacity:params.Ufs_params.cache_blocks;
      cgs;
      cg_dirty = Array.make sh.ngroups false;
      alloc_hint = Array.init sh.ngroups (fun g -> data_start sh g);
      next_dir_group = 0;
      cpu_overlapped = 0;
      live = true;
      ops_c = Cedar_obs.Metrics.counter metrics "ufs.ops";
    }
  in
  Cedar_obs.Metrics.gauge metrics "ufs.cpu_overlapped_us" (fun () ->
      t.cpu_overlapped);
  t

let write_sb t ~clean =
  write_block_sync t 1 (encode_sb t.sh t.params ~clean ~block_bytes:t.sh.block_bytes)

let mkfs device params =
  let sh = shape_of (Device.geometry device) params in
  let cgs = Array.init sh.ngroups (fun _ -> Cg.fresh sh) in
  let t = mk device params sh cgs in
  (* Root directory: an empty dir with no data blocks yet. *)
  Bitmap.set cgs.(0).Cg.inodes (index_of_inum sh root_inum);
  (* reserve inum 1 as well, as BSD does *)
  Bitmap.set cgs.(0).Cg.inodes (index_of_inum sh 1);
  (* Zero the inode blocks of every group so free slots decode as free. *)
  let zero = Bytes.make sh.block_bytes '\000' in
  for g = 0 to sh.ngroups - 1 do
    for i = 0 to sh.inode_blocks - 1 do
      write_block_sync t (inode_block sh g i) zero
    done
  done;
  let root = Inode.empty Inode.Dir ~mtime:0 in
  root.Inode.nlink <- 2;
  write_inode_sync t root_inum root;
  Array.fill t.cg_dirty 0 sh.ngroups true;
  flush_cgs t;
  write_sb t ~clean:true

let mount device =
  let base = Ufs_params.for_geometry (Device.geometry device) in
  (* The superblock is at block 1 with the block size recorded inside. *)
  let sb_image =
    Device.read_run device ~sector:base.Ufs_params.block_sectors
      ~count:base.Ufs_params.block_sectors
  in
  match decode_sb sb_image with
  | None -> corrupt "superblock does not decode"
  | Some (clean, fixup) ->
    if not clean then `Needs_fsck
    else begin
      let params = fixup base in
      let sh = shape_of (Device.geometry device) params in
      let t = mk device params sh (Array.init sh.ngroups (fun _ -> Cg.fresh sh)) in
      for g = 0 to sh.ngroups - 1 do
        match Cg.decode (read_block t (cg_block sh g)) with
        | Some cg -> t.cgs.(g) <- cg
        | None -> corrupt (Printf.sprintf "cylinder group %d does not decode" g)
      done;
      write_sb t ~clean:false;
      `Ok t
    end

let unmount t =
  require_live t;
  sync t;
  write_sb t ~clean:true;
  t.live <- false

(* --- fsck ---------------------------------------------------------------- *)

let fsck device =
  let clock = Device.clock device in
  let t0 = Simclock.now clock in
  let base = Ufs_params.for_geometry (Device.geometry device) in
  let sb_image =
    Device.read_run device ~sector:base.Ufs_params.block_sectors
      ~count:base.Ufs_params.block_sectors
  in
  let params =
    match decode_sb sb_image with
    | Some (_, fixup) -> fixup base
    | None -> corrupt "fsck: superblock does not decode"
  in
  let sh = shape_of (Device.geometry device) params in
  let t = mk device params sh (Array.init sh.ngroups (fun _ -> Cg.fresh sh)) in
  let inodes_checked = ref 0 in
  let dirs_checked = ref 0 in
  let fixed = ref 0 in
  (* Pass 1: read every inode block; collect block usage per inode,
     following indirect blocks. *)
  let used_blocks = Hashtbl.create 1024 in
  let live_inodes = Hashtbl.create 1024 in
  let per_block = sh.block_bytes / Inode.bytes_per_inode in
  for g = 0 to sh.ngroups - 1 do
    for ib = 0 to sh.inode_blocks - 1 do
      let data =
        match read_block t (inode_block sh g ib) with
        | data -> Bytes.copy data
        | exception Device.Error _ ->
          (* unreadable inode block: every inode in it is lost *)
          incr fixed;
          Bytes.make sh.block_bytes '\000'
      in
      let block_dirty = ref false in
      for slot = 0 to per_block - 1 do
        let raw = Bytes.sub data (slot * Inode.bytes_per_inode) Inode.bytes_per_inode in
        if not (Inode.is_free_slot raw) then begin
          incr inodes_checked;
          (* VAX-era fsck burned real CPU per inode across its passes *)
          Simclock.advance clock 800;
          let inum = inum_of sh g ((ib * per_block) + slot) in
          match Inode.decode raw with
          | None ->
            (* damaged inode: clear the slot on disk *)
            Bytes.fill data (slot * Inode.bytes_per_inode) Inode.bytes_per_inode '\000';
            block_dirty := true;
            incr fixed
          | Some ino ->
            Hashtbl.replace live_inodes inum ino;
            (match file_blocks t ino with
            | blocks ->
              List.iter (fun b -> if b <> 0 then Hashtbl.replace used_blocks b ()) blocks
            | exception Device.Error _ -> incr fixed);
            if ino.Inode.indirect <> 0 then
              Hashtbl.replace used_blocks ino.Inode.indirect ()
        end
      done;
      if !block_dirty then write_block_sync t (inode_block sh g ib) data
    done
  done;
  (* The root directory itself may have been a casualty: recreate it
     empty (as real fsck reattaches what it can to lost+found). *)
  if not (Hashtbl.mem live_inodes root_inum) then begin
    let root = Inode.empty Inode.Dir ~mtime:(Simclock.now clock) in
    root.Inode.nlink <- 2;
    write_inode_sync t root_inum root;
    Hashtbl.replace live_inodes root_inum root;
    incr fixed
  end;
  (* Pass 2: walk the directory tree; verify entries reference live
     inodes; drop dangling ones. *)
  let reachable = Hashtbl.create 1024 in
  (* Directory blocks are read tolerantly and REPAIRED: undecodable
     blocks are emptied, dangling entries (child inode dead) removed,
     and any cleaned block is rewritten in place. *)
  let clean_dir_block b =
    let entries, broken =
      match Dirblock.entries (read_block t b) with
      | entries -> (entries, false)
      | exception Bytebuf.Decode_error _ -> ([], true)
      | exception Device.Error _ -> ([], true)
    in
    let kept = List.filter (fun (child, _) -> Hashtbl.mem live_inodes child) entries in
    if broken || List.length kept <> List.length entries then begin
      incr fixed;
      match Dirblock.encode ~block_bytes:sh.block_bytes kept with
      | Some image -> write_block_sync t b image
      | None -> assert false (* kept fits: it is a subset of one block *)
    end;
    kept
  in
  let rec walk inum =
    if not (Hashtbl.mem reachable inum) then begin
      Hashtbl.replace reachable inum ();
      match Hashtbl.find_opt live_inodes inum with
      | Some ino when ino.Inode.kind = Inode.Dir ->
        incr dirs_checked;
        List.iter
          (fun b ->
            if b <> 0 then
              List.iter
                (fun (child, _name) ->
                  Simclock.advance clock 150;
                  walk child)
                (clean_dir_block b))
          (file_blocks t ino)
      | Some _ | None -> ()
    end
  in
  if Hashtbl.mem live_inodes root_inum then walk root_inum;
  (* Pass 5: rebuild the bitmaps from what pass 1 and 2 found. *)
  for g = 0 to sh.ngroups - 1 do
    t.cgs.(g) <- Cg.fresh sh
  done;
  Hashtbl.iter
    (fun b () ->
      let g = group_of_block sh b in
      Bitmap.set t.cgs.(g).Cg.blocks (b - group_start sh g))
    used_blocks;
  Hashtbl.iter
    (fun inum _ ->
      if Hashtbl.mem reachable inum then
        Bitmap.set t.cgs.(group_of_inum sh inum).Cg.inodes (index_of_inum sh inum))
    live_inodes;
  Bitmap.set t.cgs.(0).Cg.inodes (index_of_inum sh 1);
  Bitmap.set t.cgs.(0).Cg.inodes (index_of_inum sh root_inum);
  Array.fill t.cg_dirty 0 sh.ngroups true;
  flush_cgs t;
  write_sb t ~clean:false;
  ( t,
    {
      inodes_checked = !inodes_checked;
      dirs_checked = !dirs_checked;
      problems_fixed = !fixed;
      duration_us = Simclock.now clock - t0;
    } )

(* --- check and ops --------------------------------------------------------- *)

(* Testing/debug aid: the exact sector holding an inode's slot. *)
let inode_sector t inum =
  let block, off = inode_location t inum in
  sector_of_block t block + (off / t.sh.block_bytes * t.sh.block_sectors)
  + (off mod t.sh.block_bytes / (t.sh.block_bytes / t.sh.block_sectors))

let check t =
  (* Rebuild usage from the tree and compare with the bitmaps. *)
  let errors = ref [] in
  let seen_blocks = Hashtbl.create 256 in
  let rec walk path inum =
    match read_inode t inum with
    | exception Fs_error.Fs_error e -> errors := Fs_error.to_string e :: !errors
    | ino ->
      List.iter
        (fun b ->
          if b <> 0 then
            if Hashtbl.mem seen_blocks b then
              errors := Printf.sprintf "block %d multiply claimed (%s)" b path :: !errors
            else Hashtbl.replace seen_blocks b ())
        (file_blocks t ino);
      if ino.Inode.kind = Inode.Dir then
        List.iter (fun (child, name) -> walk (path ^ "/" ^ name) child) (dir_entries t ino)
  in
  walk "" root_inum;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

let ops t =
  {
    Fs_ops.label = "4.3BSD";
    create = (fun ~name ~data -> create t ~path:name data);
    open_stat = (fun ~name -> stat t ~path:name);
    read_all = (fun ~name -> read_all t ~path:name);
    read_page = (fun ~name ~page -> read_page t ~path:name ~page);
    delete = (fun ~name -> unlink t ~path:name);
    list =
      (fun ~prefix ->
        let dir =
          if prefix = "" then ""
          else if String.length prefix > 0 && prefix.[String.length prefix - 1] = '/'
          then String.sub prefix 0 (String.length prefix - 1)
          else prefix
        in
        readdir t ~path:dir);
    force = (fun () -> sync t);
    device = t.device;
    clock = t.clock;
  }
