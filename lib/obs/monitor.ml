(* Time-series sampler over the metrics registry.

   The monitor is polled from the demon dispatch path (and at op
   boundaries); whenever at least [interval_us] of virtual time has
   passed since the previous sample it folds the registry into one
   timestamped [sample]: counter deltas over the interval, gauge point
   values, windowed dist percentiles, and derived float gauges (the
   saturation figures) computed from the same interval. Samples live in
   a bounded ring, oldest evicted first.

   Everything is deterministic: iteration order is the registry's
   name-sorted [Metrics.kinds] view, the only clock is the caller's
   [now] closure, and no wall time or hashtable order leaks into a
   sample. *)

module Stats = Cedar_util.Stats

type sample = {
  at_us : int;
  dt_us : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  derived : (string * float) list;
  dists : (string * Metrics.summary) list;
}

type view = { dt_us : int; delta : string -> int; value : string -> int }

type t = {
  metrics : Metrics.t;
  interval_us : int;
  now : unit -> int;
  window : int;
  mutable derived_fns : (string * (view -> float)) list;  (* name-sorted *)
  mutable watches : string list;  (* name-sorted *)
  prev : (string, int) Hashtbl.t;  (* last sampled counter/gauge values *)
  ring : sample array;  (* length = capacity; only [len] slots valid *)
  mutable head : int;  (* index of the oldest sample *)
  mutable len : int;
  mutable evicted : int;
  mutable last_at : int;
  mutable total : int;  (* samples taken over the monitor's lifetime *)
  mutable on_sample : (sample -> unit) option;
}

let dummy_sample =
  { at_us = 0; dt_us = 0; counters = []; gauges = []; derived = []; dists = [] }

let create ?(ring = 4096) ?(window = 256) ~interval_us ~now metrics =
  if interval_us < 1 then invalid_arg "Monitor.create: interval_us < 1";
  if ring < 1 then invalid_arg "Monitor.create: ring < 1";
  if window < 1 then invalid_arg "Monitor.create: window < 1";
  let t =
    {
      metrics;
      interval_us;
      now;
      window;
      derived_fns = [];
      watches = [];
      prev = Hashtbl.create 64;
      ring = Array.make ring dummy_sample;
      head = 0;
      len = 0;
      evicted = 0;
      last_at = now ();
      total = 0;
      on_sample = None;
    }
  in
  (* Seed the delta baseline from the registry's current values, so the
     first interval measures change since creation — not cumulative
     totals over a dt that only spans one interval (a busy fraction
     above 1.0, say). Instruments registered later baseline at 0, which
     is where they start anyway. *)
  List.iter
    (fun (name, kind) ->
      match kind with
      | `Dist -> ()
      | `Counter | `Gauge -> (
        match Metrics.read metrics name with
        | Some v -> Hashtbl.replace t.prev name v
        | None -> ()))
    (Metrics.kinds metrics);
  t

let interval_us t = t.interval_us
let set_on_sample t f = t.on_sample <- Some f

let sorted_replace name v assoc =
  (name, v) :: List.remove_assoc name assoc
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let derive t name f = t.derived_fns <- sorted_replace name f t.derived_fns

let watch_dist t name =
  if not (List.mem name t.watches) then
    t.watches <- List.sort String.compare (name :: t.watches)

(* A watched dist's window: the last [window] values of the series the
   registry holds now, so a re-registered (per-boot) series shows only
   its own values. Added oldest first, as they were recorded, so the
   mean sums in the same order as the series'. *)
let window_summary t name =
  let w = Stats.create () in
  (match Metrics.read_dist t.metrics name with
  | Some s -> List.iter (Stats.add w) (List.rev (Stats.recent s t.window))
  | None -> ());
  Metrics.summarize w

let push t s =
  let cap = Array.length t.ring in
  if t.len < cap then begin
    t.ring.((t.head + t.len) mod cap) <- s;
    t.len <- t.len + 1
  end
  else begin
    t.ring.(t.head) <- s;
    t.head <- (t.head + 1) mod cap;
    t.evicted <- t.evicted + 1
  end

let sample_now t =
  let at = t.now () in
  let dt = at - t.last_at in
  let deltas = Hashtbl.create 64 in
  let values = Hashtbl.create 64 in
  let counters = ref [] and gauges = ref [] in
  List.iter
    (fun (name, kind) ->
      match kind with
      | `Dist -> ()
      | (`Counter | `Gauge) as k -> (
        match Metrics.read t.metrics name with
        | None -> ()
        | Some cur ->
          let before = Option.value ~default:0 (Hashtbl.find_opt t.prev name) in
          Hashtbl.replace t.prev name cur;
          Hashtbl.replace deltas name (cur - before);
          Hashtbl.replace values name cur;
          (match k with
          | `Counter -> counters := (name, cur - before) :: !counters
          | `Gauge -> gauges := (name, cur) :: !gauges)))
    (Metrics.kinds t.metrics);
  let view =
    {
      dt_us = dt;
      delta =
        (fun name -> Option.value ~default:0 (Hashtbl.find_opt deltas name));
      value =
        (fun name -> Option.value ~default:0 (Hashtbl.find_opt values name));
    }
  in
  let derived = List.map (fun (name, f) -> (name, f view)) t.derived_fns in
  let dists = List.map (fun name -> (name, window_summary t name)) t.watches in
  let s =
    {
      at_us = at;
      dt_us = dt;
      counters = List.rev !counters;
      gauges = List.rev !gauges;
      derived;
      dists;
    }
  in
  push t s;
  t.last_at <- at;
  t.total <- t.total + 1;
  (match t.on_sample with Some f -> f s | None -> ());
  s

let due_at t = t.last_at + t.interval_us

let maybe_sample t =
  if t.now () >= due_at t then ignore (sample_now t : sample)

let count t = t.len
let total t = t.total
let evicted t = t.evicted

let samples t =
  let cap = Array.length t.ring in
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.ring.((t.head + i) mod cap) :: !acc
  done;
  !acc

let last_sample t =
  if t.len = 0 then None
  else Some t.ring.((t.head + t.len - 1) mod Array.length t.ring)
