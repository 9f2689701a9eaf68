// Real time at a fixed reference host speed.
//
// On a host shared with other tenants the same work takes up to ~1.8x
// longer in one minute than in the next, and the slow spells outlast a
// whole run. A fixed unit of reference work runs before every leg of a
// batch; the batch's real times are scaled by how long that unit took
// against its nominal time, so they read as seconds on a host where the
// unit takes kReferenceUnitNominalS (see README.md, "Real time on a shared
// host").

#ifndef SIMBENCH_REFERENCE_H_
#define SIMBENCH_REFERENCE_H_

namespace simbench {

// About one unit's wall time on a quiet 4-vCPU Intel Xeon VM (4.2-4.7 ms
// in its fastest spells), so scaled times read near real seconds there.
inline constexpr double kReferenceUnitNominalS = 0.0045;

// One fixed unit of reference work: a small discrete-event loop (a binary
// heap of timed events, a hash table of per-connection state, small heap
// allocations), the kinds of work the simulator does. It is the
// benchmark's own code, so a change to the simulator never changes it.
// Returns the wall seconds it took.
double RunReferenceUnit();

// Reference units run between the legs of one batch.
class ReferenceClock {
 public:
  void Tick();  // runs one unit and adds its time
  int units() const { return units_; }
  // Mean wall seconds per unit; 0 before the first tick.
  double unit_s() const { return units_ == 0 ? 0.0 : seconds_ / units_; }

 private:
  double seconds_ = 0;
  int units_ = 0;
};

// `real_s` taken while a unit took `unit_s`, at the nominal unit time.
inline double AtReferenceSpeed(double real_s, double unit_s) {
  return unit_s <= 0 ? real_s : real_s * kReferenceUnitNominalS / unit_s;
}

}  // namespace simbench

#endif  // SIMBENCH_REFERENCE_H_
