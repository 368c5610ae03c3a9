open Cedar_fsbase

let n = 10
let bytes_each = 900
let dir = "obs"

let name i = Bulk.file_name ~dir i
let payload i = Concurrent.content ~fill:i bytes_each

let warmup (ops : Fs_ops.t) =
  (* Touch the directory's name-table neighbourhood so the scripted run
     measures steady-state I/O, not first-touch cache misses. *)
  ignore (ops.Fs_ops.create ~name:(dir ^ "/warm") ~data:(payload 0) : Fs_ops.info);
  ops.Fs_ops.force ();
  ignore (ops.Fs_ops.read_all ~name:(dir ^ "/warm") : bytes);
  ops.Fs_ops.delete ~name:(dir ^ "/warm");
  ops.Fs_ops.force ()

let scripted (ops : Fs_ops.t) =
  for i = 0 to n - 1 do
    ignore (ops.Fs_ops.create ~name:(name i) ~data:(payload i) : Fs_ops.info)
  done;
  ops.Fs_ops.force ();
  for i = 0 to n - 1 do
    ignore (ops.Fs_ops.open_stat ~name:(name i) : Fs_ops.info)
  done;
  for i = 0 to n - 1 do
    ignore (ops.Fs_ops.read_all ~name:(name i) : bytes)
  done;
  ignore (ops.Fs_ops.list ~prefix:(dir ^ "/") : Fs_ops.info list);
  for i = 0 to n - 1 do
    ops.Fs_ops.delete ~name:(name i)
  done;
  ops.Fs_ops.force ()

let paper_bulk (ops : Fs_ops.t) =
  let dir = "paper" in
  ignore (Bulk.create_many ops ~dir ~n:100 ~bytes_each:512 : Measure.sample);
  ignore (Bulk.list_dir ops ~dir ~expect:100 : Measure.sample);
  ignore (Bulk.read_many ops ~dir ~n:100 : Measure.sample);
  ignore (Bulk.delete_many ops ~dir ~n:100 : Measure.sample)
