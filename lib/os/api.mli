(** Host-side implementations of the OS API services.

    The simulated gate writes a service number to the host-call port;
    the machine invokes {!dispatch}, which reads arguments from
    R12-R14, validates any application-supplied pointer against the
    calling app's writable range, performs the service against the
    synthetic sensor models, writes the result to R12, and charges the
    service's modeled cycle cost from {!Amulet_cc.Apis.table}
    (gate/context-switch cycles are {e executed}, not charged).

    Side effects that concern the scheduler (timers, subscriptions)
    are returned as {!effect}s for the kernel to apply. *)

type effect =
  | Set_timer of { id : int; period_ms : int }
  | Cancel_timer of int
  | Subscribe of { sensor : Event.sensor; rate_hz : int }
  | Unsubscribe of Event.sensor
  | Pointer_fault of { service : string; addr : int; len : int }
      (** an app handed the OS a pointer outside its own region *)

type t = {
  sensors : Sensors.t;
  display : string array;  (** 4-line display model *)
  log : Buffer.t;  (** flash log model *)
  ble : Buffer.t;  (** radio transmit model *)
  mutable rand_state : int;
  mutable next_timer : int;
  mutable calls : int;
  mutable charged_cycles : int;
}

val create : Sensors.t -> t

val dispatch :
  t ->
  Amulet_mcu.Machine.t ->
  certified:bool array ->
  valid:(int * int) list ->
  now_ms:int ->
  svc:int ->
  effect list
(** Serves service number [svc] as its {!Amulet_cc.Apis.table} entry
    says: base charge, then — for a pointer service — the clamped
    length, the validated extent and the per-unit charge; a number
    outside the table charges {!Amulet_cc.Apis.unknown}'s base cost
    and returns [0xFFFF].  [valid] lists the half-open address ranges
    the calling app may legitimately hand to the OS (its data segment,
    plus the shared SRAM stack in the shared-stack modes).
    [certified], indexed by service number, says which services the
    static certifier proved safe to serve without the dynamic range
    validation ({!Amulet_analysis.Gate_taint} via the image's
    [cert.gates.*] notes). *)
