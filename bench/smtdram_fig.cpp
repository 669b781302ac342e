/**
 * @file
 * Reproduce one paper table or figure (or one of this repository's
 * extensions) from the figure table:
 *
 *   smtdram_fig fig10_thread_aware --mixes 2-MEM
 *   smtdram_fig fig10_thread_aware --help     # the figure's flags
 *   smtdram_fig                               # list every figure
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/figure_spec.hh"

using namespace smtdram;

int
main(int argc, char **argv)
{
    const FigureSpec *spec = argc > 1 ? findFigure(argv[1]) : nullptr;
    if (!spec) {
        std::fprintf(stderr,
                     "usage: smtdram_fig <figure> [flags] "
                     "(<figure> --help lists its flags)\n\n"
                     "figures:\n");
        for (const FigureSpec &s : figureSpecs())
            std::fprintf(stderr, "  %-28s %s\n", s.name.c_str(),
                         s.figure.c_str());
        return 1;
    }
    return runFigure(*spec, std::vector<std::string>(argv + 2, argv + argc));
}
