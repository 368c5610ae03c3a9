type t = {
  mutable ios : int;
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable label_ops : int;
  mutable seeks : int;
  mutable seek_us : int;
  mutable rotation_us : int;
  mutable transfer_us : int;
  mutable busy_us : int;
}

let create () =
  {
    ios = 0;
    reads = 0;
    writes = 0;
    sectors_read = 0;
    sectors_written = 0;
    label_ops = 0;
    seeks = 0;
    seek_us = 0;
    rotation_us = 0;
    transfer_us = 0;
    busy_us = 0;
  }

let copy t = { t with ios = t.ios }

let diff ~after ~before =
  {
    ios = after.ios - before.ios;
    reads = after.reads - before.reads;
    writes = after.writes - before.writes;
    sectors_read = after.sectors_read - before.sectors_read;
    sectors_written = after.sectors_written - before.sectors_written;
    label_ops = after.label_ops - before.label_ops;
    seeks = after.seeks - before.seeks;
    seek_us = after.seek_us - before.seek_us;
    rotation_us = after.rotation_us - before.rotation_us;
    transfer_us = after.transfer_us - before.transfer_us;
    busy_us = after.busy_us - before.busy_us;
  }

let reset t =
  t.ios <- 0;
  t.reads <- 0;
  t.writes <- 0;
  t.sectors_read <- 0;
  t.sectors_written <- 0;
  t.label_ops <- 0;
  t.seeks <- 0;
  t.seek_us <- 0;
  t.rotation_us <- 0;
  t.transfer_us <- 0;
  t.busy_us <- 0

let to_json t =
  Cedar_obs.Jsonb.Obj
    [
      ("ios", Cedar_obs.Jsonb.Int t.ios);
      ("reads", Cedar_obs.Jsonb.Int t.reads);
      ("writes", Cedar_obs.Jsonb.Int t.writes);
      ("sectors_read", Cedar_obs.Jsonb.Int t.sectors_read);
      ("sectors_written", Cedar_obs.Jsonb.Int t.sectors_written);
      ("label_ops", Cedar_obs.Jsonb.Int t.label_ops);
      ("seeks", Cedar_obs.Jsonb.Int t.seeks);
      ("seek_us", Cedar_obs.Jsonb.Int t.seek_us);
      ("rotation_us", Cedar_obs.Jsonb.Int t.rotation_us);
      ("transfer_us", Cedar_obs.Jsonb.Int t.transfer_us);
      ("busy_us", Cedar_obs.Jsonb.Int t.busy_us);
    ]

let pp ppf t =
  Format.fprintf ppf
    "ios=%d (r=%d w=%d) sectors r=%d w=%d labels=%d seeks=%d busy=%.1fms (seek %.1f rot %.1f xfer %.1f)"
    t.ios t.reads t.writes t.sectors_read t.sectors_written t.label_ops t.seeks
    (float_of_int t.busy_us /. 1000.)
    (float_of_int t.seek_us /. 1000.)
    (float_of_int t.rotation_us /. 1000.)
    (float_of_int t.transfer_us /. 1000.)
