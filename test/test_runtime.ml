(* Tests for the native OCaml-domains runtime library.  The host has
   few cores, so thread counts stay small and iteration counts modest;
   correctness (not throughput) is what these tests establish. *)

module R = Armb_runtime

let check = Alcotest.check

(* ---------- Pilot codec ---------- *)

let test_codec_roundtrip () =
  let pool = R.Pilot_codec.make_pool ~seed:1 () in
  let s = R.Pilot_codec.sender pool and r = R.Pilot_codec.receiver pool in
  let data = ref 0 and flag = ref 0 in
  List.iter
    (fun msg ->
      (match R.Pilot_codec.encode s msg with
      | R.Pilot_codec.Write_data v -> data := v
      | R.Pilot_codec.Toggle_flag -> flag := !flag lxor 1);
      match R.Pilot_codec.try_decode r ~data:!data ~flag:!flag with
      | Some got -> check Alcotest.int "payload" msg got
      | None -> Alcotest.fail "lost message")
    [ 0; 1; 1; 1; max_int; min_int; 42; 42 ]

let prop_codec_any_sequence =
  QCheck.Test.make ~name:"native codec delivers any int sequence" ~count:200
    QCheck.(list int)
    (fun msgs ->
      let pool = R.Pilot_codec.make_pool ~seed:9 () in
      let s = R.Pilot_codec.sender pool and r = R.Pilot_codec.receiver pool in
      let data = ref 0 and flag = ref 0 in
      List.for_all
        (fun msg ->
          (match R.Pilot_codec.encode s msg with
          | R.Pilot_codec.Write_data v -> data := v
          | R.Pilot_codec.Toggle_flag -> flag := !flag lxor 1);
          R.Pilot_codec.try_decode r ~data:!data ~flag:!flag = Some msg)
        msgs)

let test_codec_no_spurious () =
  let pool = R.Pilot_codec.make_pool ~seed:2 () in
  let r = R.Pilot_codec.receiver pool in
  check Alcotest.bool "nothing to decode initially" true
    (R.Pilot_codec.try_decode r ~data:0 ~flag:0 = None)

(* ---------- SPSC ring ---------- *)

let test_ring_fifo_single_threaded () =
  let r = R.Spsc_ring.create ~slots:8 in
  for i = 1 to 8 do
    check Alcotest.bool "send ok" true (R.Spsc_ring.try_send r i)
  done;
  check Alcotest.bool "full" false (R.Spsc_ring.try_send r 99);
  for i = 1 to 8 do
    check (Alcotest.option Alcotest.int) "fifo" (Some i) (R.Spsc_ring.try_recv r)
  done;
  check (Alcotest.option Alcotest.int) "empty" None (R.Spsc_ring.try_recv r)

let test_ring_power_of_two () =
  match R.Spsc_ring.create ~slots:12 with
  | _ -> Alcotest.fail "non-power-of-two accepted"
  | exception Invalid_argument _ -> ()

let test_ring_cross_domain () =
  let r = R.Spsc_ring.create ~slots:16 in
  let n = 5_000 in
  let producer = Domain.spawn (fun () -> for i = 1 to n do R.Spsc_ring.send r i done) in
  let sum = ref 0 and ordered = ref true and last = ref 0 in
  for _ = 1 to n do
    let v = R.Spsc_ring.recv r in
    if v <> !last + 1 then ordered := false;
    last := v;
    sum := !sum + v
  done;
  Domain.join producer;
  check Alcotest.bool "in order" true !ordered;
  check Alcotest.int "no loss" (n * (n + 1) / 2) !sum

(* ---------- Pilot channel ---------- *)

let test_pilot_channel_single_threaded () =
  let ch = R.Pilot_channel.create ~slots:4 () in
  List.iter (fun v -> check Alcotest.bool "send" true (R.Pilot_channel.try_send ch v)) [ 7; 7; 7 ];
  List.iter
    (fun v -> check (Alcotest.option Alcotest.int) "recv" (Some v) (R.Pilot_channel.try_recv ch))
    [ 7; 7; 7 ];
  check (Alcotest.option Alcotest.int) "drained" None (R.Pilot_channel.try_recv ch)

let test_pilot_channel_capacity () =
  let ch = R.Pilot_channel.create ~slots:2 () in
  check Alcotest.bool "1" true (R.Pilot_channel.try_send ch 1);
  check Alcotest.bool "2" true (R.Pilot_channel.try_send ch 2);
  check Alcotest.bool "full" false (R.Pilot_channel.try_send ch 3);
  ignore (R.Pilot_channel.try_recv ch);
  check Alcotest.bool "slot reclaimed" true (R.Pilot_channel.try_send ch 3)

let test_pilot_channel_cross_domain () =
  (* a single-entry shuffle pool makes repeated payloads collide, so the
     flag-toggle fallback is exercised under real concurrency *)
  let ch = R.Pilot_channel.create ~pool_size:1 ~slots:16 () in
  let n = 5_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          R.Pilot_channel.send ch (i / 100)
        done)
  in
  let ok = ref true in
  for i = 1 to n do
    if R.Pilot_channel.recv ch <> i / 100 then ok := false
  done;
  Domain.join producer;
  check Alcotest.bool "all payloads in order" true !ok;
  check Alcotest.bool "fallback path exercised" true (R.Pilot_channel.fallbacks ch > 0)

(* ---------- Ticket lock ---------- *)

let test_ticket_lock_counter () =
  let l = R.Ticket_lock.create () in
  let counter = ref 0 in
  let iters = 20_000 in
  let worker () =
    for _ = 1 to iters do
      R.Ticket_lock.with_lock l (fun () -> incr counter)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  check Alcotest.int "no lost increments" (4 * iters) !counter;
  check Alcotest.int "served accounting" (4 * iters) (R.Ticket_lock.holders_served l)

let test_ticket_lock_exception_safe () =
  let l = R.Ticket_lock.create () in
  (try R.Ticket_lock.with_lock l (fun () -> failwith "boom") with Failure _ -> ());
  (* must be re-acquirable *)
  check Alcotest.int "still usable" 7 (R.Ticket_lock.with_lock l (fun () -> 7))

(* ---------- DSM-Synch ---------- *)

let test_dsmsynch_counter () =
  let d = R.Dsmsynch.create () in
  let counter = ref 0 in
  let iters = 10_000 in
  let worker () =
    for _ = 1 to iters do
      ignore
        (R.Dsmsynch.exec d (fun () ->
             incr counter;
             !counter))
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  check Alcotest.int "no lost increments" (4 * iters) !counter

let test_dsmsynch_pilot_counter () =
  let d = R.Dsmsynch.create ~pilot:true () in
  let counter = ref 0 in
  let iters = 10_000 in
  let worker () =
    for _ = 1 to iters do
      ignore (R.Dsmsynch.exec d (fun () -> incr counter; !counter))
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  check Alcotest.int "no lost increments (pilot)" (4 * iters) !counter

let test_dsmsynch_return_values () =
  let d = R.Dsmsynch.create () in
  check Alcotest.int "return value" 41 (R.Dsmsynch.exec d (fun () -> 41));
  check Alcotest.int "another" 17 (R.Dsmsynch.exec d (fun () -> 17))

(* A lock keeps its nodes itself, so locks used once and dropped leave
   nothing live behind them. *)
let test_dsmsynch_no_retention () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for i = 1 to 10_000 do
    ignore (R.Dsmsynch.exec (R.Dsmsynch.create ()) (fun () -> i))
  done;
  let grown = live () - before in
  if grown >= 100_000 then
    Alcotest.failf "10,000 dropped locks left %d more live words" grown

(* Every lock shares one read-only Pilot pool, so a lock allocates only
   its own words, a bootstrap node and the lock record: under 64, where
   a 64-entry pool of its own would add 459. *)
let test_dsmsynch_create_words () =
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (R.Dsmsynch.create ()))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  if per >= 64.0 then Alcotest.failf "Dsmsynch.create allocates %.1f words" per

(* ---------- FFWD ---------- *)

let test_ffwd_counter () =
  let srv = R.Ffwd.create ~clients:4 () in
  let counter = ref 0 in
  let iters = 5_000 in
  let worker client () =
    for _ = 1 to iters do
      ignore (R.Ffwd.request srv ~client (fun () -> incr counter; !counter))
    done
  in
  let ds = List.init 3 (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join ds;
  R.Ffwd.shutdown srv;
  check Alcotest.int "no lost increments" (4 * iters) !counter;
  check Alcotest.int "server accounting" (4 * iters) (R.Ffwd.served srv)

let test_ffwd_pilot_counter () =
  let srv = R.Ffwd.create ~pilot:true ~clients:2 () in
  let counter = ref 0 in
  let iters = 5_000 in
  let worker client () =
    for _ = 1 to iters do
      ignore (R.Ffwd.request srv ~client (fun () -> incr counter; !counter))
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  R.Ffwd.shutdown srv;
  check Alcotest.int "no lost increments (pilot)" (2 * iters) !counter

let test_ffwd_shutdown_idempotent () =
  let srv = R.Ffwd.create ~clients:1 () in
  ignore (R.Ffwd.request srv ~client:0 (fun () -> 1));
  R.Ffwd.shutdown srv;
  R.Ffwd.shutdown srv

(* ---------- delegated data structures ---------- *)

let test_delegated_queue_fifo () =
  let l = R.Ticket_lock.create () in
  let p = R.Delegated.With_ticket l in
  let q = R.Delegated.Queue_d.create () in
  List.iter (R.Delegated.Queue_d.enqueue q p) [ 1; 2; 3 ];
  check Alcotest.int "length" 3 (R.Delegated.Queue_d.length q p);
  check (Alcotest.option Alcotest.int) "fifo" (Some 1) (R.Delegated.Queue_d.dequeue q p);
  check (Alcotest.option Alcotest.int) "fifo2" (Some 2) (R.Delegated.Queue_d.dequeue q p)

let test_delegated_stack_lifo () =
  let d = R.Dsmsynch.create () in
  let p = R.Delegated.With_dsmsynch d in
  let s = R.Delegated.Stack_d.create () in
  List.iter (R.Delegated.Stack_d.push s p) [ 1; 2; 3 ];
  check (Alcotest.option Alcotest.int) "lifo" (Some 3) (R.Delegated.Stack_d.pop s p)

let test_delegated_sorted_list () =
  let l = R.Ticket_lock.create () in
  let p = R.Delegated.With_ticket l in
  let s = R.Delegated.Sorted_list_d.create () in
  check Alcotest.bool "insert 5" true (R.Delegated.Sorted_list_d.insert s p 5);
  check Alcotest.bool "insert 3" true (R.Delegated.Sorted_list_d.insert s p 3);
  check Alcotest.bool "insert dup" false (R.Delegated.Sorted_list_d.insert s p 5);
  check Alcotest.bool "mem" true (R.Delegated.Sorted_list_d.mem s p 3);
  check Alcotest.bool "remove" true (R.Delegated.Sorted_list_d.remove s p 3);
  check Alcotest.bool "gone" false (R.Delegated.Sorted_list_d.mem s p 3);
  check Alcotest.int "length" 1 (R.Delegated.Sorted_list_d.length s p)

let test_delegated_list_concurrent () =
  let d = R.Dsmsynch.create () in
  let p = R.Delegated.With_dsmsynch d in
  let s = R.Delegated.Sorted_list_d.create () in
  let n = 2_000 in
  let worker lo () =
    for k = lo to lo + n - 1 do
      ignore (R.Delegated.Sorted_list_d.insert s p k)
    done
  in
  let ds = [ Domain.spawn (worker 0); Domain.spawn (worker n) ] in
  worker (2 * n) ();
  List.iter Domain.join ds;
  check Alcotest.int "all inserted" (3 * n) (R.Delegated.Sorted_list_d.length s p)

let test_delegated_hash () =
  let protects = Array.init 4 (fun _ -> R.Delegated.With_ticket (R.Ticket_lock.create ())) in
  let h = R.Delegated.Hash_d.create ~buckets:4 ~protects in
  for k = 0 to 99 do
    ignore (R.Delegated.Hash_d.insert h k)
  done;
  check Alcotest.int "size" 100 (R.Delegated.Hash_d.length h);
  check Alcotest.bool "mem" true (R.Delegated.Hash_d.mem h 50);
  check Alcotest.bool "remove" true (R.Delegated.Hash_d.remove h 50);
  check Alcotest.int "size after remove" 99 (R.Delegated.Hash_d.length h)

(* ---------- pipeline ---------- *)

let test_pipeline_identity () =
  let spec =
    { R.Pipeline.channel = R.Pipeline.Plain_ring; slots = 8; stages = [ (fun x -> x + 1); (fun x -> x * 2) ] }
  in
  let inputs = List.init 200 Fun.id in
  let r = R.Pipeline.run spec ~inputs in
  check (Alcotest.list Alcotest.int) "stage composition preserved"
    (List.map (fun x -> (x + 1) * 2) inputs)
    r.R.Pipeline.outputs

let test_pipeline_pilot_channels () =
  let spec = { R.Pipeline.channel = R.Pipeline.Pilot; slots = 8; stages = [ (fun x -> x + 10) ] } in
  let inputs = List.init 300 (fun i -> i mod 7) in
  let r = R.Pipeline.run spec ~inputs in
  check (Alcotest.list Alcotest.int) "pilot channels deliver in order"
    (List.map (fun x -> x + 10) inputs)
    r.R.Pipeline.outputs

let () =
  Alcotest.run "armb_runtime"
    [
      ( "pilot-codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "no spurious decode" `Quick test_codec_no_spurious;
          QCheck_alcotest.to_alcotest prop_codec_any_sequence;
        ] );
      ( "spsc-ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo_single_threaded;
          Alcotest.test_case "power of two" `Quick test_ring_power_of_two;
          Alcotest.test_case "cross-domain" `Slow test_ring_cross_domain;
        ] );
      ( "pilot-channel",
        [
          Alcotest.test_case "single-threaded" `Quick test_pilot_channel_single_threaded;
          Alcotest.test_case "capacity" `Quick test_pilot_channel_capacity;
          Alcotest.test_case "cross-domain with collisions" `Slow
            test_pilot_channel_cross_domain;
        ] );
      ( "ticket-lock",
        [
          Alcotest.test_case "counter" `Slow test_ticket_lock_counter;
          Alcotest.test_case "exception safety" `Quick test_ticket_lock_exception_safe;
        ] );
      ( "dsmsynch",
        [
          Alcotest.test_case "counter" `Slow test_dsmsynch_counter;
          Alcotest.test_case "pilot counter" `Slow test_dsmsynch_pilot_counter;
          Alcotest.test_case "return values" `Quick test_dsmsynch_return_values;
          Alcotest.test_case "dropped locks are freed" `Quick test_dsmsynch_no_retention;
          Alcotest.test_case "create shares the Pilot pool" `Quick test_dsmsynch_create_words;
        ] );
      ( "ffwd",
        [
          Alcotest.test_case "counter" `Slow test_ffwd_counter;
          Alcotest.test_case "pilot counter" `Slow test_ffwd_pilot_counter;
          Alcotest.test_case "shutdown idempotent" `Quick test_ffwd_shutdown_idempotent;
        ] );
      ( "delegated",
        [
          Alcotest.test_case "queue fifo" `Quick test_delegated_queue_fifo;
          Alcotest.test_case "stack lifo" `Quick test_delegated_stack_lifo;
          Alcotest.test_case "sorted list" `Quick test_delegated_sorted_list;
          Alcotest.test_case "concurrent list inserts" `Slow test_delegated_list_concurrent;
          Alcotest.test_case "hash table" `Quick test_delegated_hash;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "composition" `Slow test_pipeline_identity;
          Alcotest.test_case "pilot channels" `Slow test_pipeline_pilot_channels;
        ] );
    ]
