open Cedar_disk

type step =
  | Seek
  | Short_seek of int
  | Latency
  | Revolution
  | Rev_minus_transfer of int
  | Transfer of int
  | Long_transfer of int
  | Cpu of int

type t = step list

let step_us g = function
  | Seek -> float_of_int g.Geometry.avg_seek_us
  | Short_seek cyls -> float_of_int (Geometry.seek_us g (max 1 cyls))
  | Latency -> float_of_int (Geometry.avg_rotational_latency_us g)
  | Revolution -> float_of_int (Geometry.rotation_us g)
  | Rev_minus_transfer n ->
    float_of_int (Geometry.rotation_us g - (n * Geometry.sector_time_us g))
  | Transfer n -> float_of_int (n * Geometry.sector_time_us g)
  | Long_transfer n ->
    (* raw transfer plus the expected track and cylinder boundary costs:
       a head switch loses one sector of skew; a cylinder crossing costs
       a single-cylinder seek and half a revolution of realignment *)
    let spt = g.Geometry.sectors_per_track in
    let spc = Geometry.sectors_per_cylinder g in
    let track_crossings = max 0 ((n - 1) / spt) in
    let cyl_crossings = max 0 ((n - 1) / spc) in
    let head_switches = track_crossings - cyl_crossings in
    float_of_int
      ((n * Geometry.sector_time_us g)
      + (head_switches * (g.Geometry.head_switch_us + Geometry.sector_time_us g))
      + (cyl_crossings * (Geometry.seek_us g 1 + (Geometry.rotation_us g / 2))))
  | Cpu us -> float_of_int us

let time_us g s = List.fold_left (fun acc st -> acc +. step_us g st) 0.0 s
let time_ms g s = time_us g s /. 1000.0

let weighted g cases =
  let psum = List.fold_left (fun acc (p, _) -> acc +. p) 0.0 cases in
  if abs_float (psum -. 1.0) > 1e-6 then
    invalid_arg "Script.weighted: probabilities must sum to 1";
  List.fold_left (fun acc (p, s) -> acc +. (p *. time_us g s)) 0.0 cases
