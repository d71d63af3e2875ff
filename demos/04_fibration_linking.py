"""Sphere fibers over projective space, and linked circles in S^3.

Run with:  python demos/04_fibration_linking.py
"""

import numpy as np

import projgeo as pg

print("== the real story: a double cover ==")
p = pg.point_from_vector([3.0, 4.0])
up, down = pg.real_fiber(p)
print(f"  fiber over [3 : 4] in RP^1: {up} and {down}")
print(f"  both project back: "
      f"{pg.points_equal(pg.hopf_project(up), p)}, "
      f"{pg.points_equal(pg.hopf_project(down), p)}")

print("\n== the complex story: circle fibers ==")
q = pg.point_from_vector(np.array([1.0, 1.0j]))
samples = pg.complex_fiber_sample(q, 8)
errs = [pg.point_distance(pg.hopf_project(x), q) for x in samples]
print(f"  8 samples of the fiber over [1 : i]; projection error {max(errs):.2e}")

a = pg.point_from_vector(np.array([1.0 + 0j, 0.0]))
b = pg.point_from_vector(np.array([0.0j, 1.0]))
print(f"  distance between the fibers of [1:0] and [0:1]: "
      f"{pg.fibers_min_distance(a, b):.6f}  (sqrt(2 - 2 |<a, b>|) = sqrt(2) = {np.sqrt(2):.6f})")

rng = np.random.default_rng(3)
dmin = np.inf
for _ in range(50):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pa, pb = pg.point_from_vector(v), pg.point_from_vector(w)
    if pg.points_equal(pa, pb):
        continue
    dmin = min(dmin, pg.fibers_min_distance(pa, pb))
print(f"  smallest gap over 50 random distinct pairs: {dmin:.4f}  (never zero)")

print("\n== any two fibers over CP^1 are linked ==")
print("Project both circles from S^3 to R^3 stereographically: one passes")
print("through the flat disk the other bounds, and the signed count of those")
print("crossings is the linking number.  The Gauss double integral agrees.\n")
for _ in range(3):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pa, pb = pg.point_from_vector(v), pg.point_from_vector(w)
    raw = pg.linking_integral(pa, pb, 1024)
    count = pg.linking_number(pa, pb, 1024)
    print(f"  crossing count {count:+d}   Gauss integral {raw:+.6f}")

print("\n== exporting a fiber for plotting ==")
xyz = pg.fiber_stereo_samples(q, 6)
print("  stereographic R^3 samples of the fiber over [1 : i]:")
for t, row in enumerate(xyz):
    print(f"    t={t}: ({row[0]:+.4f}, {row[1]:+.4f}, {row[2]:+.4f})")
print("  (the CLI writes the same data as CSV: projgeo fiber point.json --stereo)")
