type t = {
  num_cores : int;
  num_clusters : int;
  num_nodes : int;
  cluster_of : int array;
  node_of : int array;
  cluster_set : Coreset.t array; (* per core: set of cores sharing its cluster *)
  node_set : Coreset.t array; (* per core: set of cores sharing its NUMA node *)
  rank : Bytes.t; (* num_cores x num_cores distance ranks, row-major *)
}

type distance = Same_core | Same_cluster | Same_node | Cross_node

let max_cores = 1024

let build node_of cluster_of =
  let num_cores = Array.length node_of in
  if num_cores = 0 then invalid_arg "Topology: no cores";
  if num_cores > max_cores then
    invalid_arg
      (Printf.sprintf "Topology: %d cores exceeds the %d-core limit" num_cores max_cores);
  let num_clusters = 1 + Array.fold_left Int.max 0 cluster_of in
  let num_nodes = 1 + Array.fold_left Int.max 0 node_of in
  (* Precompute what the memory system asks on every access: the
     distance class of a core pair and, per core, the membership sets of
     its cluster and node peers.  Snoop-distance questions over sharer
     sets then reduce to a few word-wise tests instead of per-sharer
     loops.  Cores of one cluster/node share one set object — the sets
     are immutable after build. *)
  let cluster_members = Array.init num_clusters (fun _ -> Coreset.create ~cores:num_cores) in
  let node_members = Array.init num_nodes (fun _ -> Coreset.create ~cores:num_cores) in
  for c = 0 to num_cores - 1 do
    Coreset.add cluster_members.(cluster_of.(c)) c;
    Coreset.add node_members.(node_of.(c)) c
  done;
  let cluster_set = Array.init num_cores (fun c -> cluster_members.(cluster_of.(c))) in
  let node_set = Array.init num_cores (fun c -> node_members.(node_of.(c))) in
  let rank = Bytes.create (num_cores * num_cores) in
  for a = 0 to num_cores - 1 do
    for b = 0 to num_cores - 1 do
      let r =
        if a = b then 0
        else if cluster_of.(a) = cluster_of.(b) then 1
        else if node_of.(a) = node_of.(b) then 2
        else 3
      in
      Bytes.unsafe_set rank ((a * num_cores) + b) (Char.unsafe_chr r)
    done
  done;
  {
    num_cores;
    num_clusters;
    num_nodes;
    cluster_of;
    node_of;
    cluster_set;
    node_set;
    rank;
  }

let make ~nodes ~clusters_per_node ~cores_per_cluster =
  if nodes <= 0 || clusters_per_node <= 0 || cores_per_cluster <= 0 then
    invalid_arg "Topology.make: non-positive dimension";
  let total = nodes * clusters_per_node * cores_per_cluster in
  if total > max_cores then
    invalid_arg
      (Printf.sprintf "Topology.make: %dx%dx%d = %d cores exceeds the %d-core limit" nodes
         clusters_per_node cores_per_cluster total max_cores);
  let node_of = Array.make total 0 and cluster_of = Array.make total 0 in
  for c = 0 to total - 1 do
    let cluster = c / cores_per_cluster in
    cluster_of.(c) <- cluster;
    node_of.(c) <- cluster / clusters_per_node
  done;
  build node_of cluster_of

let heterogeneous ~nodes ~cluster_sizes =
  if nodes <= 0 || cluster_sizes = [] then invalid_arg "Topology.heterogeneous";
  let per_node = List.fold_left ( + ) 0 cluster_sizes in
  let clusters_per_node = List.length cluster_sizes in
  let total = nodes * per_node in
  if total > max_cores then
    invalid_arg
      (Printf.sprintf "Topology.heterogeneous: %d cores exceeds the %d-core limit" total
         max_cores);
  let node_of = Array.make total 0 and cluster_of = Array.make total 0 in
  let core = ref 0 in
  for n = 0 to nodes - 1 do
    List.iteri
      (fun i size ->
        for _ = 1 to size do
          node_of.(!core) <- n;
          cluster_of.(!core) <- (n * clusters_per_node) + i;
          incr core
        done)
      cluster_sizes
  done;
  build node_of cluster_of

let num_cores t = t.num_cores
let num_nodes t = t.num_nodes
let num_clusters t = t.num_clusters

let check_core t c =
  if c < 0 || c >= t.num_cores then
    invalid_arg
      (Printf.sprintf "Topology: core %d outside 0..%d" c (t.num_cores - 1))

let cluster_of t c =
  check_core t c;
  t.cluster_of.(c)

let node_of t c =
  check_core t c;
  t.node_of.(c)

let cores_of_node t n =
  List.filter (fun c -> t.node_of.(c) = n) (List.init t.num_cores Fun.id)

let cores_of_cluster t cl =
  List.filter (fun c -> t.cluster_of.(c) = cl) (List.init t.num_cores Fun.id)

let cluster_set t c =
  check_core t c;
  t.cluster_set.(c)

let node_set t c =
  check_core t c;
  t.node_set.(c)

let distance_rank t a b =
  check_core t a;
  check_core t b;
  Char.code (Bytes.unsafe_get t.rank ((a * t.num_cores) + b))

let distance_of_rank = function
  | 0 -> Same_core
  | 1 -> Same_cluster
  | 2 -> Same_node
  | _ -> Cross_node

let distance t a b = distance_of_rank (distance_rank t a b)

let pp_distance ppf = function
  | Same_core -> Format.pp_print_string ppf "same-core"
  | Same_cluster -> Format.pp_print_string ppf "same-cluster"
  | Same_node -> Format.pp_print_string ppf "same-node"
  | Cross_node -> Format.pp_print_string ppf "cross-node"

let pp ppf t =
  Format.fprintf ppf "%d cores / %d clusters / %d NUMA nodes" t.num_cores t.num_clusters
    t.num_nodes
