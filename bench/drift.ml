(* The drift gate's comparisons (bench diff): a structural diff of a
   regenerated snapshot against its committed copy, and the one rule
   for the named checks every snapshot records.

   The simulation is deterministic, so every field must match exactly
   except the ones whose key is declared in [tolerant_keys]: measured
   times, rates, fractions and means, whose exact value is a property
   of the device model rather than of behavioural correctness. They get
   [rel_tolerance], so a legitimately re-timed run reads as "within
   tolerance" while a behavioural change (counts, inputs, violations,
   structure) still trips the diff. Widening the list is a reviewed
   change: the test suite pins every field of the committed snapshots
   it covers. *)

module J = Cedar_obs.Jsonb

(* Innermost object keys, sorted. *)
let tolerant_keys =
  [
    "achieved_ops_s";
    "agg_ops_per_force";
    "at_us";
    "batch_mean";
    "busy";
    "busy_max";
    "busy_mean";
    "busy_us";
    "commit_wait_max_us";
    "commit_wait_mean_us";
    "commit_wait_p50_us";
    "commit_wait_p99_us";
    "device.busy_us";
    "device_us";
    "duration_us";
    "fill";
    "fill_max";
    "log_replay_us";
    "mean";
    "op_lat_max_us";
    "op_lat_p50_us";
    "op_lat_p99_us";
    "op_us";
    "ops_per_force";
    "ops_per_force_pooled";
    "p50";
    "p90";
    "p95";
    "p99";
    "phase_queue";
    "restart_total_us";
    "rotation_us";
    "seek_us";
    "throughput_ops_s";
    "total_us";
    "transfer_us";
    "wait_p50_us";
    "wait_p99_us";
  ]

let tolerant key = List.mem key tolerant_keys
let rel_tolerance = 0.10

let close a b =
  a = b
  || abs_float (a -. b) <= rel_tolerance *. Stdlib.max (abs_float a) (abs_float b)

(* Walk both trees in step, collecting one line per mismatch. [key] is
   the innermost object field we are under (tolerance is per-field). *)
let rec diff ~path ~key want got acc =
  match (want, got) with
  | J.Obj w, J.Obj g ->
    let acc =
      List.fold_left
        (fun acc (k, wv) ->
          match List.assoc_opt k g with
          | Some gv -> diff ~path:(path ^ "." ^ k) ~key:k wv gv acc
          | None -> Printf.sprintf "%s.%s: missing" path k :: acc)
        acc w
    in
    List.fold_left
      (fun acc (k, _) ->
        if List.mem_assoc k w then acc
        else Printf.sprintf "%s.%s: unexpected" path k :: acc)
      acc g
  | J.Arr w, J.Arr g ->
    if List.length w <> List.length g then
      Printf.sprintf "%s: %d element(s), want %d" path (List.length g)
        (List.length w)
      :: acc
    else
      List.fold_left2
        (fun (i, acc) wv gv ->
          ( i + 1,
            diff ~path:(Printf.sprintf "%s[%d]" path i) ~key wv gv acc ))
        (0, acc) w g
      |> snd
  | J.Int w, J.Int g when w = g -> acc
  | J.Float w, J.Float g when w = g -> acc
  | (J.Int _ | J.Float _), (J.Int _ | J.Float _) when tolerant key ->
    let f = function J.Int n -> float_of_int n | J.Float x -> x | _ -> 0.0 in
    if close (f want) (f got) then acc
    else
      Printf.sprintf "%s: %s, want %s (beyond %.0f%%)" path (J.to_string got)
        (J.to_string want)
        (rel_tolerance *. 100.0)
      :: acc
  | _ ->
    if want = got then acc
    else Printf.sprintf "%s: %s, want %s" path (J.to_string got) (J.to_string want) :: acc

(* The one check rule. A snapshot records its contract as one top-level
   "checks" object of named booleans. A regenerated snapshot whose check
   fails differs from a committed one that holds, so [diff] catches it;
   this rule also catches a snapshot committed with a check already
   failing, or with no check at all. One line per entry of [v]'s checks
   that is not [true], or one line when [v] records none; [label] (the
   snapshot's path) prefixes each. *)
let failed_checks label v =
  let where = label ^ ".checks" in
  let checks = match v with J.Obj kvs -> List.assoc_opt "checks" kvs | _ -> None in
  match checks with
  | Some (J.Obj (_ :: _ as cs)) ->
    List.filter_map
      (fun (name, c) ->
        if c = J.Bool true then None
        else Some (Printf.sprintf "%s.%s: %s, want true" where name (J.to_string c)))
      cs
  | _ -> [ where ^ ": no check recorded" ]
