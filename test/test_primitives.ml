(* lib/primitives holds only what the simulator (int64 machine words)
   and the native runtime (immediate ints, Atomics) must agree on bit
   for bit; every primitive itself is written in its own substrate.
   These tests pin that agreement: the two Pilot codecs draw the same
   shuffle stream and round-trip, and the delegation payload encoding
   agrees across widths.  They also check the native seqlock and ticket
   lock single-threaded, and that Run_config validates the knobs every
   front end shares. *)

module Pilot64 = Armb_core.Pilot
module PilotInt = Armb_runtime.Pilot_codec
module D = Armb_primitives.Delegation

(* ---------- pilot codec ---------- *)

(* Both instances project the same seeded SplitMix64 stream: the int
   pool must be the int64 pool shifted down two bits. *)
let pilot_pools_share_stream () =
  let p64 = Pilot64.make_pool ~size:32 ~seed:11 () in
  let pint = PilotInt.make_pool ~size:32 ~seed:11 () in
  Alcotest.(check int) "pool sizes" (Array.length p64) (Array.length pint);
  Array.iteri
    (fun i v64 ->
      Alcotest.(check int)
        (Printf.sprintf "pool[%d] projects" i)
        (Int64.to_int (Int64.shift_right_logical v64 2))
        pint.(i))
    p64

(* Channel round-trip through simulated shared words: every message
   decodes to itself, in order, via either the data store or the flag
   fallback. *)
let pilot_roundtrip () =
  let pool = Pilot64.make_pool ~seed:3 () in
  let s = Pilot64.sender pool and r = Pilot64.receiver pool in
  let data = ref 0L and flag = ref 0L in
  let msgs = [ 1L; 5L; 5L; 5L; 0L; 0L; 123456789L; Int64.min_int ] in
  List.iter
    (fun m ->
      (match Pilot64.encode s m with
      | Pilot64.Write_data v -> data := v
      | Pilot64.Toggle_flag -> flag := Int64.logxor !flag 1L);
      match Pilot64.try_decode r ~data:!data ~flag:!flag with
      | Some got -> Alcotest.(check int64) "message" m got
      | None -> Alcotest.fail (Printf.sprintf "message %Ld not detected" m))
    msgs;
  Alcotest.(check int) "sent" (List.length msgs) (Pilot64.sent s);
  Alcotest.(check int) "received" (List.length msgs) (Pilot64.received r);
  (* no message pending: the decoder must not invent one *)
  match Pilot64.try_decode r ~data:!data ~flag:!flag with
  | None -> ()
  | Some v -> Alcotest.fail (Printf.sprintf "phantom message %Ld" v)

let pilot_int_roundtrip () =
  let pool = PilotInt.make_pool ~seed:3 () in
  let s = PilotInt.sender pool and r = PilotInt.receiver pool in
  let data = ref 0 and flag = ref 0 in
  List.iter
    (fun m ->
      (match PilotInt.encode s m with
      | PilotInt.Write_data v -> data := v
      | PilotInt.Toggle_flag -> flag := !flag lxor 1);
      match PilotInt.try_decode r ~data:!data ~flag:!flag with
      | Some got -> Alcotest.(check int) "message" m got
      | None -> Alcotest.fail (Printf.sprintf "message %d not detected" m))
    [ 7; 7; 7; 0; 0; max_int; 42 ]

(* ---------- delegation payload ---------- *)

let delegation_roundtrip () =
  Alcotest.(check int) "waiting" 0 D.Over_int.waiting;
  Alcotest.(check int) "handoff" 1 D.Over_int.handoff;
  Alcotest.(check bool) "handoff detected" true (D.Over_int.is_handoff D.Over_int.handoff);
  Alcotest.(check bool) "completed is not handoff" false
    (D.Over_int.is_handoff (D.Over_int.pack ~ret:9 ~completed:true));
  List.iter
    (fun ret ->
      let ret64 = Int64.of_int ret in
      let p = D.Over_int.pack ~ret ~completed:true in
      let p64 = D.Over_int64.pack ~ret:ret64 ~completed:true in
      (* the two widths agree bit-for-bit on in-range payloads *)
      Alcotest.(check int64) "cross-width pack" (Int64.of_int p) p64;
      let r, c = D.Over_int.unpack p in
      Alcotest.(check int) "ret" ret r;
      Alcotest.(check bool) "completed" true c;
      let r64, c64 = D.Over_int64.unpack p64 in
      Alcotest.(check int64) "ret64" ret64 r64;
      Alcotest.(check bool) "completed64" true c64)
    [ 0; 1; 7; 1000; (1 lsl 40) - 1 ];
  (* a handoff unpacks as not-completed *)
  let _, c = D.Over_int64.unpack D.Over_int64.handoff in
  Alcotest.(check bool) "handoff not completed" false c

(* ---------- native seqlock and ticket lock ---------- *)

let native_seqlock () =
  let sl = Armb_runtime.Seqlock.create ~words:4 in
  Armb_runtime.Seqlock.write sl [| 1; 2; 3; 4 |];
  Alcotest.(check (array int)) "snapshot" [| 1; 2; 3; 4 |] (Armb_runtime.Seqlock.read sl);
  Armb_runtime.Seqlock.write sl [| 5; 6; 7; 8 |];
  Alcotest.(check (array int)) "second snapshot" [| 5; 6; 7; 8 |] (Armb_runtime.Seqlock.read sl);
  Alcotest.(check int) "writes counted" 2 (Armb_runtime.Seqlock.writes sl);
  match Armb_runtime.Seqlock.write sl [| 1 |] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "arity mismatch accepted"

let native_ticket_lock () =
  let t = Armb_runtime.Ticket_lock.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    Armb_runtime.Ticket_lock.with_lock t (fun () -> incr hits)
  done;
  Alcotest.(check int) "bodies ran" 5 !hits;
  Alcotest.(check int) "holders served" 5 (Armb_runtime.Ticket_lock.holders_served t)

(* ---------- run config ---------- *)

let run_config () =
  let module RC = Armb_platform.Run_config in
  let cfg = Armb_platform.Platform.kunpeng916 in
  let rc = RC.make cfg in
  let n = Armb_mem.Topology.num_cores cfg.Armb_cpu.Config.topo in
  Alcotest.(check (pair int int)) "default cross placement" (0, n / 2) rc.RC.cores;
  Alcotest.(check int) "default seed" 42 rc.RC.seed;
  Alcotest.(check int) "default trials" 300 rc.RC.trials;
  Alcotest.(check (list int)) "core list" [ 0; n / 2 ] (RC.core_list rc);
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  rejects "out-of-range core" (fun () -> RC.make ~cores:(0, n) cfg);
  rejects "negative core" (fun () -> RC.make ~cores:(-1, 2) cfg);
  rejects "identical cores" (fun () -> RC.make ~cores:(3, 3) cfg);
  rejects "zero trials" (fun () -> RC.make ~trials:0 cfg);
  rejects "negative seed" (fun () -> RC.make ~seed:(-1) cfg)

let () =
  Alcotest.run "primitives"
    [
      ( "pilot",
        [
          Alcotest.test_case "pools share the seeded stream" `Quick pilot_pools_share_stream;
          Alcotest.test_case "int64 channel round-trip" `Quick pilot_roundtrip;
          Alcotest.test_case "int channel round-trip" `Quick pilot_int_roundtrip;
        ] );
      ( "delegation",
        [ Alcotest.test_case "payload encoding across widths" `Quick delegation_roundtrip ] );
      ( "native-protocols",
        [
          Alcotest.test_case "seqlock publishes snapshots" `Quick native_seqlock;
          Alcotest.test_case "ticket lock serializes" `Quick native_ticket_lock;
        ] );
      ("run-config", [ Alcotest.test_case "defaults and validation" `Quick run_config ]);
    ]
