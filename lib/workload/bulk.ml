open Cedar_fsbase

let file_name ~dir i = Printf.sprintf "%s/file%04d" dir i

let create_many (ops : Fs_ops.t) ~dir ~n ~bytes_each =
  let (), s =
    Measure.run ops (fun () ->
        for i = 0 to n - 1 do
          ignore
            (ops.Fs_ops.create ~name:(file_name ~dir i)
               ~data:(Concurrent.content ~fill:i bytes_each))
        done;
        ops.Fs_ops.force ())
  in
  s

let list_dir (ops : Fs_ops.t) ~dir ~expect =
  let infos, s = Measure.run ops (fun () -> ops.Fs_ops.list ~prefix:(dir ^ "/")) in
  if List.length infos < expect then
    failwith
      (Printf.sprintf "list %s: expected at least %d entries, got %d" dir expect
         (List.length infos));
  s

let read_many (ops : Fs_ops.t) ~dir ~n =
  let (), s =
    Measure.run ops (fun () ->
        for i = 0 to n - 1 do
          ignore (ops.Fs_ops.read_all ~name:(file_name ~dir i))
        done)
  in
  s

let delete_many (ops : Fs_ops.t) ~dir ~n =
  let (), s =
    Measure.run ops (fun () ->
        for i = 0 to n - 1 do
          ops.Fs_ops.delete ~name:(file_name ~dir i)
        done;
        ops.Fs_ops.force ())
  in
  s
