(* Tests for the simulation kernel: heap, event queue, RNG, statistics,
   result tables. *)

open Armb_sim

let check = Alcotest.check

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create 0 in
  List.iter (fun k -> Heap.add h ~key:k k) [ 5; 3; 9; 1; 7; 3; 0; 42 ];
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, v) ->
      check Alcotest.int "key = value" k v;
      popped := k :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "sorted ascending" [ 0; 1; 3; 3; 5; 7; 9; 42 ]
    (List.rev !popped)

let test_heap_empty () =
  let h = Heap.create 0 in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check (Alcotest.option Alcotest.int) "peek none" None (Heap.peek_key h);
  check Alcotest.bool "pop none" true (Heap.pop h = None)

let test_heap_clear () =
  let h = Heap.create "" in
  Heap.add h ~key:1 "a";
  Heap.add h ~key:2 "b";
  Heap.clear h;
  check Alcotest.int "length 0" 0 (Heap.length h);
  Heap.add h ~key:3 "c";
  check Alcotest.bool "usable after clear" true (Heap.pop h = Some (3, "c"))

let test_heap_growth () =
  let h = Heap.create ~capacity:2 0 in
  for i = 1000 downto 1 do
    Heap.add h ~key:i i
  done;
  check Alcotest.int "length" 1000 (Heap.length h);
  check (Alcotest.option Alcotest.int) "min" (Some 1) (Heap.peek_key h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops any int list in sorted order" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k ()) l;
      let rec drain acc =
        match Heap.pop h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

(* ---------- Event queue ---------- *)

let test_eq_time_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~at:30 (fun () -> log := 30 :: !log);
  Event_queue.schedule q ~at:10 (fun () -> log := 10 :: !log);
  Event_queue.schedule q ~at:20 (fun () -> log := 20 :: !log);
  Event_queue.run q;
  check (Alcotest.list Alcotest.int) "time order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Event_queue.now q)

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Event_queue.schedule q ~at:5 (fun () -> log := i :: !log)
  done;
  Event_queue.run q;
  check (Alcotest.list Alcotest.int) "insertion order at equal times"
    (List.init 10 Fun.id) (List.rev !log)

let test_eq_past_clamped () =
  let q = Event_queue.create () in
  let fired_at = ref (-1) in
  Event_queue.schedule q ~at:100 (fun () ->
      Event_queue.schedule q ~at:5 (fun () -> fired_at := Event_queue.now q));
  Event_queue.run q;
  check Alcotest.int "past event clamped to now" 100 !fired_at

let test_eq_cascade () =
  let q = Event_queue.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Event_queue.schedule_in q ~delay:2 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 50;
  Event_queue.run q;
  check Alcotest.int "all chained events fired" 50 !count;
  check Alcotest.int "clock advanced by 2 each" 100 (Event_queue.now q);
  check Alcotest.int "processed count" 50 (Event_queue.processed q)

let test_eq_until () =
  let q = Event_queue.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Event_queue.schedule q ~at:(i * 10) (fun () -> incr fired)
  done;
  Event_queue.run ~until:55 q;
  check Alcotest.int "only events <= 55" 5 !fired;
  check Alcotest.int "rest pending" 5 (Event_queue.pending q);
  check Alcotest.int "clock advanced to until" 55 (Event_queue.now q)

let test_eq_until_empty_queue () =
  (* Draining early still advances the clock to [until]: simulated time
     passes even when nothing is scheduled in it. *)
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:10 ignore;
  Event_queue.run ~until:100 q;
  check Alcotest.int "clock at until after drain" 100 (Event_queue.now q);
  (* ... but a [max_events] stop leaves the clock at the last event. *)
  let q2 = Event_queue.create () in
  Event_queue.schedule q2 ~at:10 ignore;
  Event_queue.schedule q2 ~at:20 ignore;
  Event_queue.run ~until:100 ~max_events:1 q2;
  check Alcotest.int "clock at last event on budget stop" 10 (Event_queue.now q2)

(* Every event must fire in strictly increasing (time, insertion) order,
   whatever mix of scheduling, partial pops and same-cycle reentrant
   scheduling produced it — the packed-heap-key invariant. *)
let prop_eq_fifo_order =
  QCheck.Test.make ~name:"event queue fires in (time, insertion) order" ~count:300
    QCheck.(list (pair (int_range 0 40) (int_range 0 3)))
    (fun cmds ->
      let q = Event_queue.create () in
      let fired = ref [] in
      let counter = ref 0 in
      let rec sched at reentrant =
        let idx = !counter in
        incr counter;
        Event_queue.schedule q ~at (fun () ->
            fired := (Event_queue.now q, idx) :: !fired;
            if reentrant > 0 then sched (Event_queue.now q) (reentrant - 1))
      in
      List.iter
        (fun (at, action) ->
          match action with
          | 0 -> sched at 0
          | 1 -> sched at 2 (* fires two more at its own cycle *)
          | 2 -> ignore (Event_queue.run_next q)
          | _ ->
            sched at 0;
            sched at 0)
        cmds;
      Event_queue.run q;
      let order = List.rev !fired in
      let rec strictly_sorted = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && strictly_sorted rest
        | _ -> true
      in
      strictly_sorted order && List.length order = !counter)

(* Hundreds of cores posting at one timestamp — the immediate-ring fast
   path: a burst scheduled from inside an event at its own cycle must
   drain in FIFO order across several ring growths (initial capacity is
   64), finish before anything at a later time, and interleave correctly
   with heap-resident future events. *)
let test_eq_same_cycle_burst () =
  let q = Event_queue.create () in
  let log = ref [] in
  let burst = 512 in
  Event_queue.schedule q ~at:50 (fun () ->
      for i = 0 to burst - 1 do
        Event_queue.schedule q ~at:50 (fun () ->
            log := i :: !log;
            (* reentrant same-cycle scheduling from a ring event *)
            if i < 8 then
              Event_queue.schedule q ~at:50 (fun () -> log := (burst + i) :: !log))
      done);
  let after_burst = ref (-1) in
  Event_queue.schedule q ~at:51 (fun () -> after_burst := List.length !log);
  Event_queue.run q;
  let expect = List.init burst Fun.id @ List.init 8 (fun i -> burst + i) in
  check (Alcotest.list Alcotest.int) "FIFO across ring growth" expect (List.rev !log);
  check Alcotest.int "later event fires after the whole burst" (burst + 8) !after_burst;
  check Alcotest.int "nothing pending" 0 (Event_queue.pending q)

(* Push the per-queue sequence counter past its 24-bit field so the
   pending events get renumbered, and check ordering still holds. *)
let test_eq_seq_renumber () =
  let q = Event_queue.create () in
  let fired = ref 0 in
  let last = ref (-1) in
  let n = (1 lsl 24) + 5000 in
  let fire () =
    incr fired;
    let t = Event_queue.now q in
    if t < !last then Alcotest.failf "time went backwards: %d after %d" t !last;
    last := t
  in
  for i = 0 to n - 1 do
    Event_queue.schedule q ~at:(i / 64) fire;
    (* Pop all but every 1024th event so the pending set stays small
       (renumbering is triggered by the sequence counter, not by queue
       depth) while still leaving real events to renumber. *)
    if i land 1023 <> 0 then ignore (Event_queue.run_next q)
  done;
  Event_queue.run q;
  check Alcotest.int "all events fired across renumbering" n !fired

(* Keys pack the time above a 24-bit sequence number, so 2^38 - 1 is
   the last time that still orders correctly; one cycle later must be
   rejected, not wrapped to fire before earlier-scheduled work. *)
let test_eq_time_limit () =
  let limit = (1 lsl 38) - 1 in
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~at:limit (fun () -> log := Event_queue.now q :: !log);
  Event_queue.schedule q ~at:10 (fun () -> log := Event_queue.now q :: !log);
  let msg = Printf.sprintf "time %d is past the limit of %d cycles" (limit + 1) limit in
  (match Event_queue.schedule q ~at:(limit + 1) ignore with
  | () -> Alcotest.fail "a time past the limit must be rejected"
  | exception Invalid_argument m ->
    check Alcotest.string "names the time and the limit" ("Event_queue.schedule: " ^ msg) m);
  Event_queue.run q;
  check (Alcotest.list Alcotest.int) "the limit orders after earlier times" [ 10; limit ]
    (List.rev !log)

let test_eq_reset () =
  let q = Event_queue.create () in
  for i = 1 to 100 do
    Event_queue.schedule q ~at:(i mod 7) ignore
  done;
  Event_queue.run ~until:3 q;
  Event_queue.schedule q ~at:3 ignore;
  Event_queue.reset q;
  check Alcotest.int "nothing pending" 0 (Event_queue.pending q);
  check Alcotest.int "clock at 0" 0 (Event_queue.now q);
  check Alcotest.int "processed at 0" 0 (Event_queue.processed q);
  let log = ref [] in
  List.iter (fun at -> Event_queue.schedule q ~at (fun () -> log := at :: !log)) [ 5; 0; 2 ];
  Event_queue.run q;
  check (Alcotest.list Alcotest.int) "runs like a fresh queue" [ 0; 2; 5 ] (List.rev !log);
  check Alcotest.int "counts from 0" 3 (Event_queue.processed q)

(* Schedule an event at [at] capturing a finalisable 1 KB buffer.
   Built in its own frame so the caller keeps no buffer alive. *)
let[@inline never] schedule_buffer q freed ~at =
  let b = Bytes.create 1024 in
  Gc.finalise (fun _ -> incr freed) b;
  Event_queue.schedule q ~at (fun () -> ignore (Sys.opaque_identity b))

(* Fired or dropped events must not stay reachable from the queue: the
   heap used to leave a popped payload in its vacated slot, keeping 39
   of 100 such buffers alive until the slots were overwritten. *)
let test_eq_releases_events () =
  let collected ~until =
    let q = Event_queue.create () and freed = ref 0 in
    for i = 1 to 100 do
      schedule_buffer q freed ~at:(5 + i)
    done;
    (match until with Some u -> Event_queue.run ~until:u q | None -> Event_queue.run q);
    (* one more at the clock: it waits in the same-cycle ring *)
    schedule_buffer q freed ~at:(Event_queue.now q);
    Event_queue.reset q;
    Gc.full_major ();
    Gc.full_major ();
    ignore (Sys.opaque_identity q);
    !freed
  in
  check Alcotest.int "fired events released" 101 (collected ~until:None);
  check Alcotest.int "dropped events released" 101 (collected ~until:(Some 50))

(* ---------- Int_table ---------- *)

type it_op =
  | It_set of int * int
  | It_get of int
  | It_find_or_add of int * int
  | It_mem of int
  | It_clear

(* An initial capacity and the steps.  Keys 0..599 with a clear about
   every 200 steps grow a table to 128 or 256 slots between clears, so
   most clears fill the arrays; a clear about every 10 steps keeps the
   bindings within the slot list, so clears walk it. *)
let gen_it_case =
  QCheck.Gen.(
    pair (oneofl [ 16; 64 ]) (oneofl [ 1; 20 ]) >>= fun (capacity, clears) ->
    map
      (fun ops -> (capacity, ops))
      (list_size (int_range 1 600)
         (frequency
            [
              (80, map2 (fun k v -> It_set (k, v)) (int_bound 599) small_nat);
              (40, map (fun k -> It_get k) (int_bound 599));
              (60, map2 (fun k v -> It_find_or_add (k, v)) (int_bound 599) small_nat);
              (30, map (fun k -> It_mem k) (int_bound 599));
              (clears, return It_clear);
            ])))

let print_it_op = function
  | It_set (k, v) -> Printf.sprintf "set %d %d" k v
  | It_get k -> Printf.sprintf "get %d" k
  | It_find_or_add (k, v) -> Printf.sprintf "find_or_add %d %d" k v
  | It_mem k -> Printf.sprintf "mem %d" k
  | It_clear -> "clear"

(* [Int_table] against a [Hashtbl] model: after every step the lengths
   agree and every model binding is in the table; after a clear, by
   either path, the table is empty (no key of the model before it is
   left) and goes on agreeing with the model.  [fold] must list exactly
   the bindings. *)
let prop_int_table_model =
  QCheck.Test.make ~name:"Int_table agrees with a Hashtbl" ~count:200
    (QCheck.make ~print:QCheck.Print.(pair int (list print_it_op)) gen_it_case)
    (fun (capacity, ops) ->
      let t = Int_table.create ~capacity (-1) and model = Hashtbl.create 16 in
      let agrees () =
        Int_table.length t = Hashtbl.length model
        && Hashtbl.fold
             (fun k v ok -> ok && Int_table.mem t k && Int_table.get t k ~default:(-1) = v)
             model true
      in
      let bindings () =
        List.sort compare (Int_table.fold t (fun k v acc -> (k, v) :: acc) [])
        = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | It_set (k, v) ->
              Int_table.set t k v;
              Hashtbl.replace model k v;
              true
            | It_get k ->
              Int_table.get t k ~default:(-1)
              = Option.value ~default:(-1) (Hashtbl.find_opt model k)
            | It_find_or_add (k, v) ->
              let want =
                match Hashtbl.find_opt model k with
                | Some old -> old
                | None ->
                  Hashtbl.replace model k v;
                  v
              in
              Int_table.find_or_add t k (fun _ -> v) = want
            | It_mem k -> Int_table.mem t k = Hashtbl.mem model k
            | It_clear ->
              let before = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
              Int_table.clear t;
              Hashtbl.reset model;
              Int_table.length t = 0
              && List.for_all (fun k -> not (Int_table.mem t k)) before
              && Int_table.fold t (fun _ _ n -> n + 1) 0 = 0
          in
          step_ok && agrees ())
        ops
      && bindings ())

(* ---------- RNG ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check Alcotest.bool "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 c in
  check Alcotest.bool "split streams differ" true (x <> y)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in stays in [lo, hi]" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let r = Rng.create seed in
      let v = Rng.int_in r lo (lo + span) in
      v >= lo && v <= lo + span)

let test_rng_shuffle_permutes () =
  let r = Rng.create 9 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 100 Fun.id) sorted

let test_rng_float_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done

(* ---------- Stats ---------- *)

let test_stats_mean_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  (* sample stddev of that classic set is ~2.138 *)
  check (Alcotest.float 0.01) "stddev" 2.138 (Stats.stddev s);
  let sm = Stats.summary s in
  check (Alcotest.float 1e-9) "min" 2.0 sm.Stats.min;
  check (Alcotest.float 1e-9) "max" 9.0 sm.Stats.max;
  check Alcotest.int "n" 8 sm.Stats.n

let test_stats_empty () =
  let s = Stats.create () in
  let sm = Stats.summary s in
  check Alcotest.int "n" 0 sm.Stats.n;
  check (Alcotest.float 1e-9) "stddev 0" 0.0 sm.Stats.stddev

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 5;
  check Alcotest.int "value" 6 (Stats.Counter.get c);
  Stats.Counter.reset c;
  check Alcotest.int "reset" 0 (Stats.Counter.get c)

(* Log-linear buckets: values below 16 are exact, and a quantile
   reads at most 1/16 above the order statistic it reports. *)
let test_histogram () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1; 5; 15; 25; 95; 1000; -3 ];
  check Alcotest.int "total" 7 (Stats.Histogram.total h);
  check Alcotest.int "negative counts as 0" 1 (Stats.Histogram.count_at h 0);
  check Alcotest.int "small values are exact" 1 (Stats.Histogram.count_at h 15);
  check Alcotest.int "16..31 are exact" 0 (Stats.Histogram.count_at h 24);
  check Alcotest.int "95 shares 92..95" 1 (Stats.Histogram.count_at h 92);
  check Alcotest.int "1000 shares 992..1023" 1 (Stats.Histogram.count_at h 1023);
  check Alcotest.int "1024 is past it" 0 (Stats.Histogram.count_at h 1024);
  check Alcotest.bool "p50 <= p99" true
    (Stats.Histogram.percentile h 0.5 <= Stats.Histogram.percentile h 0.99);
  (* one value under a larger one: the median reports its bucket's top *)
  let rng = Rng.create 3 in
  for _ = 1 to 2000 do
    let v = Rng.int rng (1 lsl (1 + Rng.int rng 50)) in
    let h = Stats.Histogram.create () in
    Stats.Histogram.add h v;
    Stats.Histogram.add h max_int;
    let p = Stats.Histogram.percentile h 0.5 in
    if p < v || p - v > v / 16 then
      Alcotest.failf "median of {%d, max_int} read %d: off by more than 1/16" v p
  done

let test_percentile_edges () =
  let h = Stats.Histogram.create () in
  check Alcotest.int "empty histogram" 0 (Stats.Histogram.percentile h 0.5);
  List.iter (Stats.Histogram.add h) [ 25; 27 ];
  check Alcotest.int "q=0 is the smallest sample" 25 (Stats.Histogram.percentile h 0.0);
  check Alcotest.int "q=1 is the largest sample" 27 (Stats.Histogram.percentile h 1.0);
  check Alcotest.int "q=0.5 is the first" 25 (Stats.Histogram.percentile h 0.5);
  Stats.Histogram.add h 1234;
  check Alcotest.int "q=1 follows the new maximum" 1234 (Stats.Histogram.percentile h 1.0);
  check Alcotest.int "lower quantiles unaffected" 27 (Stats.Histogram.percentile h 0.5);
  (* the top bucket never reports past the largest sample *)
  Stats.Histogram.add h max_int;
  check Alcotest.int "max_int" max_int (Stats.Histogram.percentile h 1.0);
  check Alcotest.int "q above 1 reads as 1" max_int (Stats.Histogram.percentile h 1.5);
  check Alcotest.int "q=0 still the smallest" 25 (Stats.Histogram.percentile h 0.0)

let test_throughput () =
  check (Alcotest.float 1.0) "1000 ops in 1000 cycles at 1 GHz"
    1e9
    (Stats.throughput_per_sec ~ops:1000 ~cycles:1000 ~freq_ghz:1.0);
  check (Alcotest.float 1e-9) "zero cycles" 0.0
    (Stats.throughput_per_sec ~ops:10 ~cycles:0 ~freq_ghz:1.0)

(* ---------- Series ---------- *)

let sample_table () =
  Series.make ~title:"t" ~unit_label:"u" ~cols:[ "a"; "b" ]
    [ ("r1", [ 1.0; 2.0 ]); ("r2", [ 3.0; 4.0 ]) ]

let test_series_cell () =
  let t = sample_table () in
  check (Alcotest.float 1e-9) "cell" 4.0 (Series.cell t ~row:"r2" ~col:"b")

let test_series_normalize () =
  let t = Series.normalize_to (sample_table ()) ~row:"r1" in
  check (Alcotest.float 1e-9) "normalized" 3.0 (Series.cell t ~row:"r2" ~col:"a");
  check (Alcotest.float 1e-9) "base row is ones" 1.0 (Series.cell t ~row:"r1" ~col:"b")

let test_series_mismatched_row () =
  Alcotest.check_raises "row width validated"
    (Invalid_argument "Series.make: row \"bad\" has 1 cells, expected 2")
    (fun () -> ignore (Series.make ~title:"x" ~unit_label:"u" ~cols:[ "a"; "b" ] [ ("bad", [ 1.0 ]) ]))

let test_series_csv () =
  let csv = Series.csv (sample_table ()) in
  check Alcotest.bool "header present" true (String.length csv > 0);
  check Alcotest.bool "has r2 line" true
    (String.split_on_char '\n' csv |> List.exists (fun l -> l = "r2,3,4"))

let () =
  Alcotest.run "armb_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pops in key order" `Quick test_heap_order;
          Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "time order" `Quick test_eq_time_order;
          Alcotest.test_case "FIFO tie-break" `Quick test_eq_fifo_ties;
          Alcotest.test_case "past events clamp to now" `Quick test_eq_past_clamped;
          Alcotest.test_case "cascading schedules" `Quick test_eq_cascade;
          Alcotest.test_case "run ~until" `Quick test_eq_until;
          Alcotest.test_case "run ~until advances clock on drain" `Quick
            test_eq_until_empty_queue;
          Alcotest.test_case "same-cycle burst (ring path)" `Quick test_eq_same_cycle_burst;
          QCheck_alcotest.to_alcotest prop_eq_fifo_order;
          Alcotest.test_case "sequence renumbering" `Slow test_eq_seq_renumber;
          Alcotest.test_case "time limit" `Quick test_eq_time_limit;
          Alcotest.test_case "reset" `Quick test_eq_reset;
          Alcotest.test_case "fired and dropped events released" `Quick
            test_eq_releases_events;
        ] );
      ("int-table", [ QCheck_alcotest.to_alcotest prop_int_table_model ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          QCheck_alcotest.to_alcotest prop_rng_int_bounds;
          QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "empty summary" `Quick test_stats_empty;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
          Alcotest.test_case "throughput" `Quick test_throughput;
        ] );
      ( "series",
        [
          Alcotest.test_case "cell lookup" `Quick test_series_cell;
          Alcotest.test_case "normalize" `Quick test_series_normalize;
          Alcotest.test_case "row width validation" `Quick test_series_mismatched_row;
          Alcotest.test_case "csv rendering" `Quick test_series_csv;
        ] );
    ]
