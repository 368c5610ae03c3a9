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
