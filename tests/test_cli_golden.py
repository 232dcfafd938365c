"""Golden outputs: the full stdout, stderr and exit code of checked commands.

Each expected output was recorded before the checks moved into one table
(``cli.CHECKS``); a change to how a check is judged or skipped shows here
byte for byte.
"""

from __future__ import annotations

import pytest

from seifertwrt.cli import main

SELFTEST_DEFAULT = """\
selftest trial 0: X(5/4,-7/3) r=9 t=5 formula-vs-oracle {0}
selftest trial 1: X(-2/5,7/2) r=5 t=3 formula-vs-oracle {0}
selftest trial 2: X(2/3) r=5 t=3 formula-vs-oracle {0}
selftest trial 3: X(1/1,-2/5,3/2) r=9 t=5 formula-vs-oracle {0}
selftest trial 4: X(-7/5,7/1) r=3 t=2 formula-vs-oracle {0}
selftest trial 5: X(6/1,-4/5,5/2) r=9 t=1 formula-vs-oracle {0}
selftest trial 6: X(7/5,7/4) r=3 t=2 formula-vs-oracle {0}
selftest trial 7: X(-6/5,-2/5,-4/5) r=7 t=4 formula-vs-oracle {0}
selftest: 28 checks, {1} failures, 4 skipped (brute force over --budget)
"""

SCAN = ("integrality-scan", "X(2/1,3/1,5/1)", "X(3/1,3/1,6/1,9/1)", "--r-range", "3:9")

GOLDEN = [
    (("selftest",), 0, SELFTEST_DEFAULT.format("ok", 0)),
    # Over the oracle's short chains, every brute force of these trials fits
    # the default budget.
    (("selftest", "--seed", "3", "--trials", "4"), 0, """\
selftest trial 0: X(2/5) r=5 t=3 formula-vs-oracle ok
selftest trial 1: X(2/1,2/1,7/4) r=7 t=5 formula-vs-oracle ok
selftest trial 2: X(1/5) r=9 t=5 formula-vs-oracle ok
selftest trial 3: X(-1/6) r=3 t=1 formula-vs-oracle ok
selftest: 16 checks, 0 failures, 0 skipped (brute force over --budget)
"""),
    (("selftest", "--inject-fault", "flip-oracle-sign"), 1,
     SELFTEST_DEFAULT.format("FAIL", 8)),
    (("selftest", "--trials", "3", "--budget", "1"), 0, """\
selftest trial 0: X(5/4,-7/3) r=9 t=5 formula-vs-oracle ok
selftest trial 1: X(-2/5,7/2) r=5 t=3 formula-vs-oracle ok
selftest trial 2: X(2/3) r=5 t=3 formula-vs-oracle ok
selftest: 9 checks, 0 failures, 3 skipped (brute force over --budget)
"""),
    # X(3/1,3/1,6/1,9/1) at r = 3 and 9 has fewer than n - 2 legs coprime
    # to r: the integrality theorem does not apply.
    (SCAN, 0, """\
X(2/1,3/1,5/1) r=3 t=1: tau'=+1.000000000+0.000000000i nu=0 b+=6 b-=1 xi[1] \
integral(xi)=True integral(theta)=True integrality=pass
X(2/1,3/1,5/1) r=5 t=4: tau'=-0.809016994+2.489898285i nu=0 b+=6 b-=1 \
xi[1 + 2*z + 2*z^2 + z^3] integral(xi)=True integral(theta)=True integrality=pass
X(2/1,3/1,5/1) r=7 t=2: tau'=-2.647948472-0.193096430i nu=0 b+=6 b-=1 \
xi[1 + z + z^2 + 2*z^3 + 2*z^4 + 2*z^5] integral(xi)=True integral(theta)=True \
integrality=pass
X(2/1,3/1,5/1) r=9 t=7: tau'=+0.766044443-3.058878704i nu=0 b+=6 b-=1 \
xi[-1 - z^2 - 2*z^3 - z^4] integral(xi)=True integral(theta)=True integrality=pass
X(3/1,3/1,6/1,9/1) r=3 t=1: tau'=+1.000000000+0.000000000i nu=0 b+=8 b-=1 xi[1] \
integral(xi)=True integral(theta)=True integrality=skip
X(3/1,3/1,6/1,9/1) r=5 t=4: tau'=-0.309016994+0.951056516i nu=0 b+=8 b-=1 \
xi[1 + z + z^2 + z^3] integral(xi)=True integral(theta)=True integrality=pass
X(3/1,3/1,6/1,9/1) r=7 t=2: tau'=-2.647948472-1.756759395i nu=0 b+=8 b-=1 \
xi[-z + z^3 + z^4 + z^5] integral(xi)=True integral(theta)=True integrality=pass
X(3/1,3/1,6/1,9/1) r=9 t=7: tau'=-8.117211192-14.059422200i nu=0 b+=8 b-=1 \
xi[-6 - 6*z - 3*z^2 - 6*z^3 - 3*z^4 + 3*z^5] integral(xi)=True \
integral(theta)=True integrality=skip
"""),
    ((*SCAN, "--format", "csv"), 0, """\
manifold,r,t,nu,b_plus,b_minus,tau_re,tau_im,xi_integral,theta_integral,xi,\
check_integrality\r
"X(2/1,3/1,5/1)",3,1,0,6,1,1.0,0.0,True,True,1/1;0/1,pass\r
"X(2/1,3/1,5/1)",5,4,0,6,1,-0.8090169943749473,2.4898982848827806,True,True,\
1/1;2/1;2/1;1/1,pass\r
"X(2/1,3/1,5/1)",7,2,0,6,1,-2.6479484716198862,-0.19309642971379337,True,True,\
1/1;1/1;1/1;2/1;2/1;2/1,pass\r
"X(2/1,3/1,5/1)",9,7,0,6,1,0.7660444431189773,-3.058878703906754,True,True,\
-1/1;0/1;-1/1;-2/1;-1/1;0/1,pass\r
"X(3/1,3/1,6/1,9/1)",3,1,0,8,1,1.0,0.0,True,True,1/1;0/1,skip\r
"X(3/1,3/1,6/1,9/1)",5,4,0,8,1,-0.30901699437494745,0.9510565162951538,True,\
True,1/1;1/1;1/1;1/1,pass\r
"X(3/1,3/1,6/1,9/1)",7,2,0,8,1,-2.6479484716198867,-1.7567593946498532,True,\
True,0/1;-1/1;0/1;1/1;1/1;1/1,pass\r
"X(3/1,3/1,6/1,9/1)",9,7,0,8,1,-8.117211191714663,-14.059422199816504,True,\
True,-6/1;-6/1;-3/1;-6/1;-3/1;3/1,skip\r
"""),
    # The residue form needs a prime level and no leg entry divisible by it
    # (r = 7 for X(2/1,3/1,7/1)); X(-2/1,3/1,6/1) has H = 0.
    (("tau", "X(2/1,3/1,7/1)", "X(-2/1,3/1,6/1)", "--r", "5,7", "--oracle",
      "--rozansky"), 0, """\
X(2/1,3/1,7/1) r=5 t=4: tau'=+1.000000000+1.902113033i nu=0 b+=6 b-=1 \
xi[2 + 2*z + z^2 + z^3] integral(xi)=True integral(theta)=True oracle=pass \
rozansky=pass
X(2/1,3/1,7/1) r=7 t=2: tau'=+2.524458670+3.165571046i nu=0 b+=6 b-=1 \
xi[1 + z + z^2 - z^4 - z^5] integral(xi)=True integral(theta)=True oracle=pass \
rozansky=skip
X(-2/1,3/1,6/1) r=5 t=4: tau'=-0.587785252+1.809016994i nu=1 b+=5 b-=1 \
xi[4 + 6*z + 6*z^2 + 4*z^3] integral(xi)=True integral(theta)=True oracle=pass \
rozansky=skip
X(-2/1,3/1,6/1) r=7 t=2: tau'=+0.000000000+0.000000000i nu=1 b+=5 b-=1 xi[0] \
integral(xi)=True integral(theta)=True oracle=pass rozansky=skip
"""),
]


@pytest.mark.parametrize(("argv", "code", "out"), GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_golden_output(capsys, argv, code, out):
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, "")
