(* Concurrent closed-loop client scripts.

   A script is a pure description — no file-system handle in sight — so
   the same script can be replayed by the server scheduler or compared
   across runs. Generation is deterministic: equal specs give byte-equal
   scripts. *)

open Cedar_util
open Cedar_fsbase

type op =
  | Create of { name : string; bytes : int; fill : int }
  | Open of string
  | Read of string
  | Read_page of { name : string; page : int }
  | Delete of string
  | List of string
  | Force

type step = Think of int | At of int | Op of op
type script = step list

(* Byte [i] of [content ~fill n] is [(i + fill) mod 251]: a 251-byte
   period, copied a chunk at a time from this table of two periods. *)
let periods = Bytes.init 502 (fun i -> Char.chr (i mod 251))

let content ~fill n =
  if fill < 0 then invalid_arg "Concurrent.content: fill < 0";
  let b = Bytes.create n in
  let src = fill mod 251 in
  let i = ref 0 in
  while !i < n do
    let len = Int.min 251 (n - !i) in
    Bytes.blit periods src b !i len;
    i := !i + len
  done;
  b

let op_name = function
  | Create { name; _ } | Open name | Read name
  | Read_page { name; _ } | Delete name ->
    name
  | List prefix -> prefix
  | Force -> ""

let mutates = function
  | Create _ | Delete _ -> true
  | Open _ | Read _ | Read_page _ | List _ | Force -> false

(* Constant literals on purpose: the server's lifecycle-trace hot path
   evaluates this with tracing off, and must not allocate there. *)
let op_kind = function
  | Create _ -> "create"
  | Open _ -> "open"
  | Read _ -> "read"
  | Read_page _ -> "read_page"
  | Delete _ -> "delete"
  | List _ -> "list"
  | Force -> "force"

let op_kinds = [ "create"; "open"; "read"; "read_page"; "delete"; "list"; "force" ]

let exec (ops : Fs_ops.t) = function
  | Create { name; bytes; fill } ->
    ignore (ops.Fs_ops.create ~name ~data:(content ~fill bytes) : Fs_ops.info)
  | Open name -> ignore (ops.Fs_ops.open_stat ~name : Fs_ops.info)
  | Read name -> ignore (ops.Fs_ops.read_all ~name : bytes)
  | Read_page { name; page } -> ignore (ops.Fs_ops.read_page ~name ~page : bytes)
  | Delete name -> ops.Fs_ops.delete ~name
  | List prefix -> ignore (ops.Fs_ops.list ~prefix : Fs_ops.info list)
  | Force -> ops.Fs_ops.force ()

(* ------------------------------------------------------------------ *)
(* The §7 make/do workload, one client's worth (Table 3's MakeDo row).

   Per round: read each module's source, stat and touch its
   dependencies, create-use-delete a compiler temp, emit the derived
   object, and rewrite the build description — under the client's own
   directory, with think time between operations (a developer's
   edit-compile pause). *)

type spec = {
  modules : int;
  deps_per_module : int;
  rounds : int;
  source_bytes : int;
  think_us : int;  (** mean think time; actual draws are uniform in ±50% *)
  seed : int;
}

let default_spec =
  {
    modules = 8;
    deps_per_module = 2;
    rounds = 2;
    source_bytes = 3_000;
    think_us = 50_000;
    seed = 1;
  }

let client_dir client = Printf.sprintf "c%02d" client
let source_name ~client i = Printf.sprintf "%s/src/M%03d.mesa" (client_dir client) i
let object_name ~client i = Printf.sprintf "%s/bin/M%03d.bcd" (client_dir client) i
let temp_name ~client i = Printf.sprintf "%s/tmp/M%03d.tmp" (client_dir client) i
let df_name ~client = Printf.sprintf "%s/build/program.df" (client_dir client)

let think rng spec acc =
  if spec.think_us <= 0 then acc
  else begin
    let lo = spec.think_us / 2 in
    Think (lo + Rng.int rng (max 1 spec.think_us)) :: acc
  end

(* One client's make/do, split where the build starts. Both halves draw
   from one generator: the served script is the two end to end. *)
let makedo_phases spec ~client =
  let rng = Rng.create (spec.seed + (client * 7919)) in
  let acc = ref [] in
  let push op = acc := Op op :: think rng spec !acc in
  (* prepare: the sources and the build description *)
  for i = 0 to spec.modules - 1 do
    let bytes =
      max 256 ((spec.source_bytes / 2) + Rng.int rng (max 1 spec.source_bytes))
    in
    push (Create { name = source_name ~client i; bytes; fill = i })
  done;
  push (Create { name = df_name ~client; bytes = 2_000; fill = 0 });
  let prepare = List.rev !acc in
  acc := [];
  for round = 1 to spec.rounds do
    for i = 0 to spec.modules - 1 do
      push (Read (source_name ~client i));
      for d = 1 to spec.deps_per_module do
        let dep = (i + d) mod spec.modules in
        push (Open (source_name ~client dep));
        push (Read_page { name = source_name ~client dep; page = 0 })
      done;
      push (Create { name = temp_name ~client i; bytes = 1_500; fill = round });
      push (Read_page { name = temp_name ~client i; page = 0 });
      push (Delete (temp_name ~client i));
      push
        (Create
           {
             name = object_name ~client i;
             bytes = max 512 (spec.source_bytes / 2);
             fill = round + i;
           })
    done;
    push (Create { name = df_name ~client; bytes = 2_200; fill = round });
    push (List (client_dir client ^ "/bin/"))
  done;
  (prepare, List.rev !acc)

let makedo_scripts spec ~clients =
  Array.init clients (fun client ->
      let prepare, build = makedo_phases spec ~client in
      prepare @ build)

(* Replay through any file system, skipping think and arrival steps. *)
let replay ops = List.iter (function Op op -> exec ops op | Think _ | At _ -> ())

let makedo_direct ops ~modules =
  let spec =
    { default_spec with modules; rounds = 1; source_bytes = 6_000; think_us = 0 }
  in
  let prepare, build = makedo_phases spec ~client:0 in
  replay ops (prepare @ [ Op Force ]);
  snd (Measure.run ops (fun () -> replay ops (build @ [ Op Force ])))

(* ------------------------------------------------------------------ *)
(* The crash-sweep reference script.

   Hand-written rather than generated so the acked/unacked oracle stays
   unambiguous: every created name is unique, deletes only target names
   created earlier in the same session (a closed-loop session only
   reaches the delete after the create was acknowledged durable), and
   explicit [Force] steps plus think time spreading past several commit
   intervals give the sweep a mix of timed and explicit force ordinals
   to crash inside. Names live under "c<NN>/ref/" so clients are
   independent and per-client recovered state can be checked against a
   per-client prefix of its mutating ops. *)

let crash_reference_client ~client =
  let name i = Printf.sprintf "%s/ref/f%d" (client_dir client) i in
  let fill i = (client * 16) + i in
  [
    Op (Create { name = name 0; bytes = 700; fill = fill 0 });
    Think 120_000;
    Op (Create { name = name 1; bytes = 1_400; fill = fill 1 });
    Think 200_000;
    Op (Open (name 0));
    Op (Create { name = name 2; bytes = 900; fill = fill 2 });
    Op Force;
    Think 250_000;
    Op (Read (name 1));
    Op (Delete (name 0));
    Think 300_000;
    Op (Create { name = name 3; bytes = 2_100; fill = fill 3 });
    Think 400_000;
    Op (Read_page { name = name 2; page = 0 });
    Op (Create { name = name 4; bytes = 600; fill = fill 4 });
    Op Force;
    Think 350_000;
    Op (Delete (name 2));
    Op (Create { name = name 5; bytes = 1_100; fill = fill 5 });
    Think 300_000;
    Op (List (client_dir client ^ "/ref/"));
  ]

let crash_reference ~clients =
  Array.init clients (fun client -> crash_reference_client ~client)

(* ------------------------------------------------------------------ *)
(* Adversarial shapes for fairness tests. *)

let bulk_writer ~client ~files ~bytes ~think_us ~seed =
  let rng = Rng.create seed in
  let acc = ref [] in
  for i = 0 to files - 1 do
    if think_us > 0 then acc := Think (1 + Rng.int rng think_us) :: !acc;
    acc :=
      Op
        (Create
           {
             name = Printf.sprintf "%s/bulk/f%04d" (client_dir client) i;
             bytes;
             fill = i;
           })
      :: !acc
  done;
  List.rev !acc

let churn ~client ~ops ~bytes ~think_us ~seed =
  let rng = Rng.create seed in
  let acc = ref [] in
  for i = 0 to ops - 1 do
    if think_us > 0 then acc := Think (1 + Rng.int rng think_us) :: !acc;
    let name = Printf.sprintf "%s/meta/f%02d" (client_dir client) (i mod 4) in
    acc := Op (Create { name; bytes; fill = i }) :: !acc;
    if i mod 2 = 1 then acc := Op (Delete name) :: !acc
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* The log-wrap churn workload.

   A closed-loop create/overwrite/delete/read mix over a small fixed
   working set, sized so a sustained run writes many times the log's
   capacity and the head wraps repeatedly. Each client owns [slots]
   names under "c<NN>/churn/"; a step picks a slot and either creates a
   new version of it (an overwrite when the slot is live — the FSD keeps
   at most [churn_keep] versions), deletes the newest version of a live
   slot, or reads a live slot. Periodic explicit [Force] steps keep the
   force cadence dense enough that a crash sweep can land between any
   two commits.

   The generator tracks each slot's live version depth (capped at
   [churn_keep], matching the volume's keep truncation) so deletes and
   reads only ever target names that exist — a clean run must replay
   with zero client errors, or the post-crash oracle is ambiguous.
   Generation is deterministic: equal specs give byte-equal scripts. *)

type churn_spec = {
  slots : int;
  churn_ops : int;
  bytes_min : int;
  bytes_max : int;
  churn_keep : int;
  churn_think_us : int;
  force_every : int;
  churn_seed : int;
}

let default_churn =
  {
    slots = 12;
    churn_ops = 400;
    bytes_min = 256;
    bytes_max = 2048;
    churn_keep = 2;
    churn_think_us = 2_000;
    force_every = 16;
    churn_seed = 1;
  }

let churn_slot_name ~client slot =
  Printf.sprintf "%s/churn/s%03d" (client_dir client) slot

let churn_client spec ~client =
  if spec.slots < 1 then invalid_arg "Concurrent.churn_client: slots < 1";
  if spec.churn_keep < 1 then invalid_arg "Concurrent.churn_client: keep < 1";
  let rng = Rng.create (spec.churn_seed + (client * 7919)) in
  let depth = Array.make spec.slots 0 in
  let acc = ref [] in
  let mutations = ref 0 in
  let last_forced = ref 0 in
  let push op = acc := Op op :: !acc in
  for i = 0 to spec.churn_ops - 1 do
    if spec.churn_think_us > 0 then
      acc := Think (1 + Rng.int rng spec.churn_think_us) :: !acc;
    let slot = Rng.int rng spec.slots in
    let name = churn_slot_name ~client slot in
    let roll = Rng.int rng 100 in
    if roll < 60 || depth.(slot) = 0 then begin
      let span = max 1 (spec.bytes_max - spec.bytes_min + 1) in
      let bytes = spec.bytes_min + Rng.int rng span in
      push (Create { name; bytes; fill = (client * 131) + i });
      depth.(slot) <- min (depth.(slot) + 1) spec.churn_keep;
      incr mutations
    end
    else if roll < 85 then begin
      push (Delete name);
      depth.(slot) <- depth.(slot) - 1;
      incr mutations
    end
    else push (Read name);
    if spec.force_every > 0 && !mutations - !last_forced >= spec.force_every
    then begin
      last_forced := !mutations;
      push Force
    end
  done;
  List.rev !acc

let churn_scripts spec ~clients =
  Array.init clients (fun client -> churn_client spec ~client)

(* ------------------------------------------------------------------ *)
(* The open-loop production workload.

   Closed-loop scripts can never saturate the server: each client waits
   for its previous op before thinking about the next, so offered load
   self-limits to the service rate. Here arrivals come from one global
   Poisson process at a configured aggregate rate — [At t] pins each
   op's earliest issue time to the virtual clock regardless of how far
   behind the server is, so when service is slower than arrival the
   backlog (queue wait, queue depth, commit wait) grows and the telemetry
   shows the saturation knee.

   Shape knobs follow production traffic folklore: heavy-tailed
   (bounded Pareto) file sizes, and zipfian popularity both over a few
   hot directories and over the name slots within each, so a minority
   of names absorbs the majority of the churn. Each arrival is assigned
   uniformly to a client session. Per-(client, dir, slot) version depth
   is tracked exactly like the churn generator (capped at [ol_keep],
   which must match the volume's keep truncation) so deletes and reads
   only target live names — a clean run replays with zero client
   errors. Generation is deterministic: equal specs give byte-equal
   script arrays. *)

type open_spec = {
  ol_rate_per_s : float;  (* aggregate arrival rate over all clients *)
  ol_ops : int;  (* total arrivals *)
  ol_bytes_min : int;
  ol_bytes_max : int;
  ol_alpha : float;  (* Pareto tail index; smaller = heavier tail *)
  ol_hot_dirs : int;
  ol_slots : int;  (* name slots per hot directory *)
  ol_zipf_s : float;  (* zipf exponent over dirs and slots *)
  ol_keep : int;
  ol_seed : int;
}

let default_open =
  {
    ol_rate_per_s = 20.0;
    ol_ops = 400;
    ol_bytes_min = 384;
    ol_bytes_max = 16_384;
    ol_alpha = 1.3;
    ol_hot_dirs = 4;
    ol_slots = 16;
    ol_zipf_s = 1.1;
    ol_keep = 2;
    ol_seed = 1;
  }

let open_name ~client dir slot =
  Printf.sprintf "%s/hot%d/f%03d" (client_dir client) dir slot

(* Draw from {0..n-1} with P(i) proportional to 1/(i+1)^s. *)
let zipf_cumulative n s =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc)
    w

let zipf_draw rng cum =
  let total = cum.(Array.length cum - 1) in
  let u = Rng.float rng total in
  let rec find i = if u < cum.(i) then i else find (i + 1) in
  find 0

let open_loop spec ~clients =
  if clients < 1 then invalid_arg "Concurrent.open_loop: clients < 1";
  if not (Float.is_finite spec.ol_rate_per_s && spec.ol_rate_per_s > 0.0) then
    invalid_arg "Concurrent.open_loop: rate not finite and positive";
  if spec.ol_hot_dirs < 1 || spec.ol_slots < 1 then
    invalid_arg "Concurrent.open_loop: hot_dirs/slots < 1";
  if spec.ol_keep < 1 then invalid_arg "Concurrent.open_loop: keep < 1";
  if spec.ol_bytes_min < 1 || spec.ol_bytes_max < spec.ol_bytes_min then
    invalid_arg "Concurrent.open_loop: bytes range";
  let rng = Rng.create spec.ol_seed in
  let dir_cum = zipf_cumulative spec.ol_hot_dirs spec.ol_zipf_s in
  let slot_cum = zipf_cumulative spec.ol_slots spec.ol_zipf_s in
  let depth = Array.init clients (fun _ ->
      Array.make_matrix spec.ol_hot_dirs spec.ol_slots 0)
  in
  let scripts = Array.make clients [] in
  let t = ref 0.0 in
  for i = 0 to spec.ol_ops - 1 do
    (* Exponential inter-arrival time of the aggregate Poisson stream. *)
    let u = Rng.float rng 1.0 in
    t := !t +. (-.log (1.0 -. u) /. spec.ol_rate_per_s *. 1e6);
    let client = Rng.int rng clients in
    let dir = zipf_draw rng dir_cum in
    let slot = zipf_draw rng slot_cum in
    let name = open_name ~client dir slot in
    let d = depth.(client).(dir) in
    let roll = Rng.int rng 100 in
    let op =
      if roll < 70 || d.(slot) = 0 then begin
        (* Bounded Pareto size: heavy tail, capped at [ol_bytes_max]. *)
        let v = Rng.float rng 1.0 in
        let raw =
          float_of_int spec.ol_bytes_min
          *. Float.pow (1.0 -. v) (-1.0 /. spec.ol_alpha)
        in
        let bytes =
          min spec.ol_bytes_max
            (max spec.ol_bytes_min (int_of_float raw))
        in
        d.(slot) <- min (d.(slot) + 1) spec.ol_keep;
        Create { name; bytes; fill = (client * 131) + i }
      end
      else if roll < 85 then begin
        d.(slot) <- d.(slot) - 1;
        Delete name
      end
      else Read name
    in
    scripts.(client) <- Op op :: At (int_of_float !t) :: scripts.(client)
  done;
  Array.map List.rev scripts

(* ------------------------------------------------------------------ *)
(* Sharding across volumes. *)

let map_names f script =
  List.map
    (function
      | (Think _ | At _) as s -> s
      | Op op ->
        Op
          (match op with
          | Create c -> Create { c with name = f c.name }
          | Open name -> Open (f name)
          | Read name -> Read (f name)
          | Read_page p -> Read_page { p with name = f p.name }
          | Delete name -> Delete (f name)
          | List prefix -> List (f prefix)
          | Force -> Force))
    script

(* Pin each client's whole namespace to one volume by nesting it under a
   shard-routing top-level directory ("v<K>.../c<NN>/..."): clients are
   dealt round-robin over volumes, so K clients on V volumes load every
   volume with K/V closed loops — the scale-out benchmark shape. With
   [volumes = 1] every name gains a constant "v0/" prefix: same volume,
   same script shape, so single- and multi-volume runs stay
   comparable. *)
let shard_scripts scripts ~volumes =
  if volumes < 1 then invalid_arg "Concurrent.shard_scripts: volumes < 1";
  Array.mapi
    (fun client script ->
      let vdir =
        Cedar_fsbase.Fname.shard_dir ~shards:volumes (client mod volumes)
      in
      map_names (fun name -> vdir ^ "/" ^ name) script)
    scripts
