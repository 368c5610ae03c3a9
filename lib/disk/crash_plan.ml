(* Force-ordinal crash planning over Device.

   The device can already kill itself after N more sector writes
   (plan_write_crash_tear), but a crash sweep wants coordinates that mean
   something to the recovery story: "the K-th sector write of the M-th
   force interval". This layer supplies the translation. It counts data
   writes per force interval via the device observer (a recording pass),
   and arms the device-level fault when the target interval opens.

   Interval m is the span between the m-th and (m+1)-th calls to
   [note_force]; interval 0 runs from [attach] to the first force. The
   caller is responsible for invoking [note_force] at every force point
   (the server's [on_force] hook fires just before [Fsd.force], which is
   exactly the boundary wanted here: writes belonging to force m's commit
   land in interval m). *)

type t = {
  dev : Device.t;
  mutable closed : int list; (* per-interval write counts, reversed *)
  mutable current : int; (* sector writes in the open interval *)
  mutable forces : int; (* note_force calls so far *)
  mutable armed : (int * int * Device.tear) option; (* force, write, tear *)
}

let attach dev =
  let t = { dev; closed = []; current = 0; forces = 0; armed = None } in
  Device.set_observer dev
    (Some
       (fun ~rw ~sector:_ ~count ->
         match rw with `W -> t.current <- t.current + count | `R -> ()));
  t

let detach t = Device.set_observer t.dev None

let plan_now t ~write ~tear =
  Device.plan_write_crash_tear t.dev ~after_sectors:write ~tear

let arm t ~force ~write ~tear =
  if force < 0 || write < 0 then invalid_arg "Crash_plan.arm";
  if force <= t.forces then plan_now t ~write ~tear
  else t.armed <- Some (force, write, tear)

let note_force t =
  t.closed <- t.current :: t.closed;
  t.current <- 0;
  t.forces <- t.forces + 1;
  match t.armed with
  | Some (force, write, tear) when force = t.forces ->
      t.armed <- None;
      plan_now t ~write ~tear
  | _ -> ()

let writes_per_interval t =
  Array.of_list (List.rev (t.current :: t.closed))
