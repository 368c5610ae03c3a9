(* A reference unit of host work that shares no code with the program
   under test, used to tell "the program got slower" from "the machine
   got slower".

   The benchmark runs on a few cores of a shared host. Other tenants slow
   everything on the core for stretches of seconds to minutes, and the
   process CPU clock charges that slowdown to whatever runs. The harness
   therefore times this kernel in short samples interleaved with the
   measured work and scales each rep's host times by [nominal_s] over
   the rep's median sample: a host-clock metric then reads what it would
   on a machine where one sample takes [nominal_s]. The program's own
   code cannot move the samples: the kernel is plain Stdlib code, and it
   allocates nothing, so neither the program's heap size nor its
   collector's state changes its speed.

   The mix follows what the simulator's hot paths do: table lookups and
   byte arithmetic over an L2-sized buffer (checksums, codecs), integer
   hashing into an open-addressed table (name tables, registries),
   dependent loads across a 64 MiB buffer (the collector's walks over a
   heap of tens of MB), block copies (sector payloads, the collector's
   promotions), and a bit-at-a-time bitmap scan (the free-page map's
   shadow commit, most of the serve's host time). *)

let small_bytes = 1 lsl 16
let table_slots = 1 lsl 12
let chase_words = 1 lsl 23
let chase_steps = 1 lsl 11
let stream_bytes = 1 lsl 23
let copy_bytes = 1 lsl 20
let bitmap_bits = 1 lsl 19

type state = {
  buf : Bytes.t;
  crc_table : int array;
  keys : int array;
  table : int array;
  chase : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** outside the OCaml heap, so the program's peak heap omits it *)
  stream : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  bitmap : Bytes.t;
}

(* Deterministic; built once, outside any measured stretch. *)
let state =
  lazy
    (let lcg = ref 0x2545F491 in
     let next () =
       lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
       !lcg
     in
     let crc_table =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 1 to 8 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     (* Sattolo's shuffle: one cycle through every slot, so the chase
        never settles into a short, cache-resident loop. *)
     let chase = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chase_words in
     for i = 0 to chase_words - 1 do
       chase.{i} <- i
     done;
     for i = chase_words - 1 downto 1 do
       let j = next () mod i in
       let t = chase.{i} in
       chase.{i} <- chase.{j};
       chase.{j} <- t
     done;
     {
       buf = Bytes.init small_bytes (fun _ -> Char.unsafe_chr (next () land 0xFF));
       crc_table;
       keys = Array.init (table_slots / 2) (fun _ -> next ());
       table = Array.make table_slots (-1);
       chase;
       stream = Bigarray.Array1.init Bigarray.char Bigarray.c_layout stream_bytes (fun i -> Char.unsafe_chr (i land 0xFF));
       bitmap = Bytes.init (bitmap_bits / 8) (fun _ -> if next () land 7 = 0 then '\001' else '\000');
     })

let checksum s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to small_bytes - 1 do
    c := s.crc_table.((!c lxor Char.code (Bytes.unsafe_get s.buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let hashing s =
  let mask = table_slots - 1 in
  Array.fill s.table 0 table_slots (-1);
  let hits = ref 0 in
  for round = 0 to 1 do
    for j = 0 to Array.length s.keys - 1 do
      let k = s.keys.(j) in
      let i = ref (((k * 0x9E3779B1) lsr 7) land mask) and searching = ref true in
      while !searching do
        let slot = s.table.(!i) in
        if slot = k then begin
          incr hits;
          searching := false
        end
        else if slot < 0 then begin
          if round = 0 then s.table.(!i) <- k;
          searching := false
        end
        else i := (!i + 1) land mask
      done
    done
  done;
  !hits

let chasing s start =
  let p = ref start in
  for _ = 1 to chase_steps do
    p := s.chase.{!p}
  done;
  !p

(* Block copies between far-apart parts of a buffer larger than L2, as
   the device model's sector copies and the collector's promotions do. *)
let copying s phase =
  let slots = stream_bytes / copy_bytes in
  let src = phase mod slots and dst = (phase + (slots / 2)) mod slots in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub s.stream (src * copy_bytes) copy_bytes)
    (Bigarray.Array1.sub s.stream (dst * copy_bytes) copy_bytes)

(* A bit-at-a-time scan of a sparse bitmap, as allocation maps are
   walked: a tight loop of predictable branches that keeps the core's
   execution units busy, which the loads above do not. *)
let bit_scan s =
  let n = ref 0 in
  for i = 0 to bitmap_bits - 1 do
    if Char.code (Bytes.get s.bitmap (i lsr 3)) land (1 lsl (i land 7)) <> 0 then incr n
  done;
  !n

let sink = ref 0
let cursor = ref 0

(* One unit of the mix; a sample is [units_per_sample] of them. *)
let unit_of_work () =
  let s = Lazy.force state in
  let c = checksum s in
  let h = hashing s in
  cursor := chasing s !cursor;
  copying s !cursor;
  sink := !sink lxor c lxor h lxor bit_scan s

let units_per_sample = 4

(* CPU seconds of one sample. *)
let sample () =
  ignore (Lazy.force state);
  let t0 = Sys.time () in
  for _ = 1 to units_per_sample do
    unit_of_work ()
  done;
  Sys.time () -. t0

(* Samples spread over a timed stretch: [tick] sits at every point
   where one may be taken, and takes one at every [every]-th, so the
   samples disturb the measured work's caches only now and then. *)
type sampler = { mutable calls : int; mutable samples : float list }

let sampler () = { calls = 0; samples = [] }
let every = 2
let take s = s.samples <- sample () :: s.samples

let tick s =
  if s.calls mod every = 0 then take s;
  s.calls <- s.calls + 1

(* A fixed constant, of the order of a sample taken inside the harness on
   the 2-vCPU KVM guest of an Intel Xeon (family 6, model 207) the
   benchmark was tuned on; samples there vary by up to 2x as other
   tenants come and go. Only ratios of scaled times mean anything; this
   just keeps them of the order of real seconds. *)
let nominal_s = 3.0e-3

(* Factor that scales a host time measured while [samples] were taken to
   the nominal machine. *)
let scale samples = nominal_s /. Host.median samples
