// Interactive Mosaic SQL shell: type statements terminated by ';',
// results print as tables. Works both interactively and piped:
//
//   echo "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);
//         SELECT * FROM t;" | ./mosaic_shell
//
// Meta-commands: \h (help), \q (quit). SHOW TABLES / POPULATIONS /
// SAMPLES / METADATA inspect the catalog.
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/database.h"

using namespace mosaic;

namespace {

void PrintHelp() {
  std::printf(
      "Mosaic SQL shell. Statements end with ';'. Highlights:\n"
      "  CREATE GLOBAL POPULATION p (a VARCHAR, ...)\n"
      "  CREATE METADATA p_M1 AS (SELECT a, cnt FROM report)\n"
      "  CREATE SAMPLE s AS (SELECT * FROM p [WHERE ...]\n"
      "                      [USING MECHANISM UNIFORM PERCENT 10])\n"
      "  INSERT INTO s VALUES (...);  COPY s FROM 'file.csv'\n"
      "  SELECT CLOSED|SEMI-OPEN|OPEN ... FROM p [GROUP BY ...]\n"
      "  SHOW TABLES | POPULATIONS | SAMPLES | METADATA\n"
      "  \\h help, \\q quit\n");
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  core::Database db;
  bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("Mosaic shell — open-world queries over biased samples.\n"
                "Type \\h for help, \\q to quit.\n");
  }
  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      std::printf(buffer.empty() ? "mosaic> " : "   ...> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = Trim(line);
    if (buffer.empty() && StartsWith(trimmed, "\\")) {
      if (trimmed == "\\q") break;
      if (trimmed == "\\h") {
        PrintHelp();
        continue;
      }
      std::printf("unknown meta-command %s (try \\h)\n",
                  std::string(trimmed).c_str());
      continue;
    }
    buffer += line;
    buffer += '\n';
    // Execute every complete (';'-terminated) statement in the buffer.
    size_t semi;
    while ((semi = buffer.find(';')) != std::string::npos) {
      std::string stmt = buffer.substr(0, semi);
      buffer.erase(0, semi + 1);
      if (Trim(stmt).empty()) continue;
      auto result = db.Execute(stmt);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      if (result->num_columns() > 0) {
        std::printf("%s", result->ToString(50).c_str());
      } else {
        std::printf("ok\n");
      }
    }
  }
  return 0;
}
