(* Seeded, single-process load generation for the serve workloads.

   Requests come from the soak farm's generator (Soak.Gen): a Zipf(1.1)
   stream over every job the generator builds, from 16 client names.
   The same seed gives byte-identical request lines; the service only
   ever sees those lines. *)

module Json = Armb_service.Json
module Gen = Armb_soak.Gen
module Invariant = Armb_soak.Invariant

(* Every distinct job Soak.Gen builds, over all 8 kinds. *)
let pool_size = 54

type request = {
  line : string;  (* the NDJSON request the service decodes *)
  kind : string;
  expect : Invariant.expect;
  pool_index : int;  (* which pool job (serve-hot); -1 when reseeded *)
}

let fields line =
  match Json.of_string line with
  | Ok (Json.Obj fs) -> fs
  | Ok _ | Error _ -> invalid_arg ("Load: generator emitted a non-object line: " ^ line)

(* The job a line asks for, without its per-request envelope. *)
let identity line =
  Json.to_string
    (Json.Obj
       (List.filter (fun (k, _) -> not (List.mem k [ "id"; "client"; "priority" ])) (fields line)))

(* The job sequence both serve workloads draw from: one Zipf sample of
   Soak.Gen with a fixed generator seed.  Every --seed serves the same
   kind mix, so runs with different seeds measure the same work; --seed
   sets the simulation seed of every request instead. *)
let sequence_seed = 1

let sequence n = Array.of_list (Gen.stream ~pool:pool_size ~requests:n ~seed:sequence_seed ())

(* Request seeds of run [seed] start here; offsets stay below 2^24. *)
let seed_base seed = (seed land 0xFFFFFF) lsl 24

let reseed line seed =
  Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "seed") (fields line) @ [ ("seed", Json.Int seed) ]))

(* One line per distinct pool job, in a fixed order.  Zipf sampling
   reaches the tail too rarely to enumerate the pool, so a uniform
   generator over the same pool (the pool depends on the generator seed
   only) draws until every job has been seen. *)
let pool_jobs () =
  let g = Gen.create ~pool:pool_size ~alpha:0.0 ~seed:sequence_seed () in
  let want = Gen.pool_size g in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let draws = ref 0 in
  while Hashtbl.length seen < want do
    if !draws > 100_000 then failwith "Load.pool_jobs: pool not covered after 100000 draws";
    incr draws;
    let j = Gen.next g in
    let id = identity j.Gen.line in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id (List.length !order);
      order := j :: !order
    end
  done;
  (Array.of_list (List.rev !order), seen)

(* serve-hot: each pool job takes one seed of the run, shared by every
   request for it, so repeats hit.  Returns the pool and the first [n]
   requests of the sequence. *)
let hot ~seed n =
  let jobs, index = pool_jobs () in
  let request i (j : Gen.job) =
    { line = reseed j.Gen.line (seed_base seed + i); kind = j.Gen.kind; expect = j.Gen.expect; pool_index = i }
  in
  let stream =
    Array.map
      (fun (j : Gen.job) ->
        match Hashtbl.find_opt index (identity j.Gen.line) with
        | Some i -> request i j
        | None -> failwith "Load.hot: request outside the discovered pool")
      (sequence n)
  in
  (Array.mapi request jobs, stream)

(* serve-cold block [block] of [jobs]: every request has a seed of its
   own, so no two requests of a run share a key. *)
let cold_block ~seed ~block (jobs : Gen.job array) =
  let n = Array.length jobs in
  Array.mapi
    (fun i (j : Gen.job) ->
      {
        line = reseed j.Gen.line (seed_base seed + (block * n) + i);
        kind = j.Gen.kind;
        expect = j.Gen.expect;
        pool_index = -1;
      })
    jobs
