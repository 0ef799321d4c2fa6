type t = {
  cfg : Armb_cpu.Config.t;
  cores : int * int;
  seed : int;
  trials : int;
}

let default_cores (cfg : Armb_cpu.Config.t) =
  let n = Armb_mem.Topology.num_cores cfg.topo in
  (0, n / 2)

let make ?cores ?(seed = 42) ?(trials = 300) cfg =
  let cores = match cores with Some c -> c | None -> default_cores cfg in
  let a, b = cores in
  let n = Armb_mem.Topology.num_cores cfg.topo in
  if a < 0 || b < 0 || a >= n || b >= n then
    invalid_arg
      (Printf.sprintf "Run_config.make: cores (%d,%d) outside 0..%d of %s" a b (n - 1) cfg.name);
  if a = b then invalid_arg "Run_config.make: the two threads must bind to distinct cores";
  if seed < 0 then invalid_arg "Run_config.make: seed must be non-negative";
  if trials <= 0 then invalid_arg "Run_config.make: trials must be positive";
  { cfg; cores; seed; trials }

let core_list t =
  let a, b = t.cores in
  [ a; b ]
