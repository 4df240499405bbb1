// The paper's `nullcgi`: a CGI program that does no work and produces less
// than a hundred bytes of output. Spawned by the Figure-3 experiment to
// measure pure CGI call overhead.
#include <cstdio>

int main() {
  std::printf("Content-Type: text/html\n\n");
  std::printf("<html><body>null cgi</body></html>\n");
  return 0;
}
